package interp_test

import (
	"errors"
	"math"
	"testing"

	"wizgo/internal/interp"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// setup builds a single-function instance runnable by the interpreter
// without the engine facade, exercising the package API directly.
func setup(t *testing.T, build func(f *wasm.FuncBuilder), ft wasm.FuncType) (*rt.Context, *rt.FuncInst) {
	t.Helper()
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("f", ft)
	build(f)
	m := b.Module()
	infos, err := validate.Module(m)
	if err != nil {
		t.Fatal(err)
	}
	fi := &rt.FuncInst{Idx: 0, Type: ft, Decl: &m.Funcs[0], Info: &infos[0]}
	ctx := &rt.Context{
		Stack:    rt.NewValueStack(1024, true),
		Inst:     &rt.Instance{Module: m, Funcs: []*rt.FuncInst{fi}, Memory: rt.NewMemory(m.Memories[0])},
		MaxDepth: 64,
	}
	ctx.Invoke = func(callee *rt.FuncInst, argBase int) error {
		_, err := interp.Call(ctx, callee, argBase)
		return err
	}
	return ctx, fi
}

func TestDirectCall(t *testing.T) {
	ctx, f := setup(t, func(f *wasm.FuncBuilder) {
		f.LocalGet(0).LocalGet(0).Op(wasm.OpI32Mul).End()
	}, wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}})
	ctx.Stack.Slots[0] = wasm.BoxI32(9)
	ctx.Stack.Tags[0] = wasm.TagI32
	if _, err := interp.Call(ctx, f, 0); err != nil {
		t.Fatal(err)
	}
	if got := wasm.UnboxI32(ctx.Stack.Slots[0]); got != 81 {
		t.Fatalf("9*9 = %d", got)
	}
	if ctx.Stack.Tags[0] != wasm.TagI32 {
		t.Fatalf("result tag = %v", ctx.Stack.Tags[0])
	}
}

// TestTagsWrittenEagerly: the in-place interpreter stores a tag for
// every slot it pushes — the property value-tag GC scanning relies on —
// on both numeric paths: the inline hot set, whose result slot keeps its
// first operand's tag, and numx for every other op (the 0xFC page
// included), which writes the result type's tag.
func TestTagsWrittenEagerly(t *testing.T) {
	cases := []struct {
		op   wasm.Opcode
		args func(f *wasm.FuncBuilder)
		res  wasm.ValueType
		want uint64
	}{
		// Inline.
		{wasm.OpI32LtS, func(f *wasm.FuncBuilder) { f.I32Const(-1).I32Const(0) }, wasm.I32, 1},
		{wasm.OpF64Add, func(f *wasm.FuncBuilder) { f.F64Const(1.5).F64Const(2.25) }, wasm.F64, math.Float64bits(3.75)},
		// numx: each result type differs from its operand's where it can.
		{wasm.OpI64LtU, func(f *wasm.FuncBuilder) { f.I64Const(-1).I64Const(0) }, wasm.I32, 0},
		{wasm.OpF32Sqrt, func(f *wasm.FuncBuilder) { f.F32Const(4) }, wasm.F32, uint64(math.Float32bits(2))},
		{wasm.OpF64ConvertI64U, func(f *wasm.FuncBuilder) { f.I64Const(-1) }, wasm.F64, math.Float64bits(1 << 64)},
		{wasm.OpI64TruncF64S, func(f *wasm.FuncBuilder) {
			l := f.AddLocal(wasm.F64)
			f.F64Const(2.5).LocalSet(l).LocalGet(l)
		}, wasm.I64, 2},
		// numx through the 0xFC page.
		{wasm.OpI32TruncSatF64S, func(f *wasm.FuncBuilder) { f.F64Const(1e10) }, wasm.I32, math.MaxInt32},
	}
	for _, c := range cases {
		t.Run(c.op.String(), func(t *testing.T) {
			ctx, f := setup(t, func(f *wasm.FuncBuilder) {
				c.args(f)
				f.Op(c.op).End()
			}, wasm.FuncType{Results: []wasm.ValueType{c.res}})
			if _, err := interp.Call(ctx, f, 0); err != nil {
				t.Fatal(err)
			}
			if got, want := ctx.Stack.Tags[0], wasm.TagOf(c.res); got != want {
				t.Errorf("result tag = %v, want %v", got, want)
			}
			if got := ctx.Stack.Slots[0]; got != c.want {
				t.Errorf("result = %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestResumeAtArbitraryPC exercises the deopt entry path: run a loop
// partially via a fresh entry state mid-body.
func TestResumeEntry(t *testing.T) {
	ctx, f := setup(t, func(f *wasm.FuncBuilder) {
		i := f.AddLocal(wasm.I32)
		f.Loop(wasm.BlockEmpty)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
		f.I32Const(100).Op(wasm.OpI32LtS)
		f.BrIf(0)
		f.End()
		f.LocalGet(i)
		f.End()
	}, wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})

	// Fresh call runs to completion.
	if _, err := interp.Call(ctx, f, 0); err != nil {
		t.Fatal(err)
	}
	if wasm.UnboxI32(ctx.Stack.Slots[0]) != 100 {
		t.Fatalf("loop result %d", wasm.UnboxI32(ctx.Stack.Slots[0]))
	}

	// Resume at the loop body with i pre-set to 95 (canonical frame):
	// pc of body start = 2 (loop opcode + blocktype), stp 0, sp above
	// the single local.
	ctx.Stack.Slots[0] = wasm.BoxI32(95)
	ctx.Stack.Tags[0] = wasm.TagI32
	status, err := interp.Run(ctx, f, 0, interp.Entry{PC: 2, STP: f.Info.STPForPC(2), SP: 1})
	if err != nil || status != rt.Done {
		t.Fatalf("resume: %v %v", status, err)
	}
	if wasm.UnboxI32(ctx.Stack.Slots[0]) != 100 {
		t.Fatalf("resumed loop result %d", wasm.UnboxI32(ctx.Stack.Slots[0]))
	}
}

// TestOSRRequest: with a threshold set, a hot back-edge returns OSRUp
// with a canonical resume state.
func TestOSRRequest(t *testing.T) {
	ctx, f := setup(t, func(f *wasm.FuncBuilder) {
		i := f.AddLocal(wasm.I32)
		f.Loop(wasm.BlockEmpty)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
		f.I32Const(1000).Op(wasm.OpI32LtS)
		f.BrIf(0)
		f.End()
		f.End()
	}, wasm.FuncType{})
	ctx.OSRThreshold = 10
	status, err := interp.Call(ctx, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != rt.OSRUp {
		t.Fatalf("status %v, want OSRUp", status)
	}
	if ctx.Resume.PC != 2 {
		t.Fatalf("resume pc %d, want loop body start", ctx.Resume.PC)
	}
	// Continue in the interpreter from the OSR point; must terminate.
	status, err = interp.Run(ctx, f, 0, interp.Entry{
		PC: ctx.Resume.PC, STP: f.Info.STPForPC(ctx.Resume.PC), SP: ctx.Resume.SP,
	})
	if err != nil || status != rt.Done {
		// A second OSR request may fire again; drain them.
		for status == rt.OSRUp && err == nil {
			status, err = interp.Run(ctx, f, 0, interp.Entry{
				PC: ctx.Resume.PC, STP: f.Info.STPForPC(ctx.Resume.PC), SP: ctx.Resume.SP,
			})
		}
		if err != nil || status != rt.Done {
			t.Fatalf("continue: %v %v", status, err)
		}
	}
}

func TestFuelBound(t *testing.T) {
	ctx, f := setup(t, func(f *wasm.FuncBuilder) {
		f.Loop(wasm.BlockEmpty)
		f.Br(0) // infinite loop
		f.End()
		f.End()
	}, wasm.FuncType{})
	ctx.Fuel = 10000
	_, err := interp.Call(ctx, f, 0)
	if err == nil {
		t.Fatal("infinite loop terminated without fuel trap")
	}
	var trap *rt.Trap
	if !errors.As(err, &trap) || trap.Kind != rt.TrapFuelExhausted {
		t.Fatalf("fuel exhaustion trapped with %v, want TrapFuelExhausted", err)
	}
}

func TestStatsCounting(t *testing.T) {
	ctx, f := setup(t, func(f *wasm.FuncBuilder) {
		f.I32Const(1).I32Const(2).Op(wasm.OpI32Add).Op(wasm.OpDrop).End()
	}, wasm.FuncType{})
	ctx.CountStats = true
	if _, err := interp.Call(ctx, f, 0); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.InterpOps != 5 {
		t.Fatalf("counted %d ops, want 5", ctx.Stats.InterpOps)
	}
}
