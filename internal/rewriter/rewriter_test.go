package rewriter_test

import (
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rewriter"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

func translate(t *testing.T, build func(f *wasm.FuncBuilder), ft wasm.FuncType) *rewriter.Code {
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
	code, err := rewriter.Translate(m, 0, &m.Funcs[0], &infos[0])
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestPreDecodingShrinksDispatches: the rewriter resolves control flow,
// so a loop body has no block/end bookkeeping instructions left.
func TestPreDecoding(t *testing.T) {
	code := translate(t, func(f *wasm.FuncBuilder) {
		i := f.AddLocal(wasm.I32)
		f.Block(wasm.BlockEmpty)
		f.Loop(wasm.BlockEmpty)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
		f.I32Const(10).Op(wasm.OpI32LtS)
		f.BrIf(0)
		f.End()
		f.End()
		f.End()
	}, wasm.FuncType{})
	// 7 body instructions + the return + the loop-entry fuel
	// checkpoint; blocks/loops/ends translate to nothing (labels only).
	if len(code.Instrs) != 9 {
		t.Errorf("translated to %d instructions, want 9", len(code.Instrs))
	}
	if code.Bytes() == 0 {
		t.Error("code size not reported")
	}
}

// TestUnreachableCodeSkipped: dead code after a branch costs no
// translated instructions, through nested blocks, until the else arm or
// the end of the frame it went dead in, which the sidetable's edges
// reach.
func TestUnreachableCodeSkipped(t *testing.T) {
	b := wasm.NewBuilder()
	f := b.NewFunc("pick", wasm.FuncType{
		Params:  []wasm.ValueType{wasm.I32},
		Results: []wasm.ValueType{wasm.I32},
	})
	f.Block(wasm.BlockVal(wasm.I32))
	f.LocalGet(0)
	f.If(wasm.BlockVal(wasm.I32))
	f.I32Const(7).Br(1)
	f.Block(wasm.BlockEmpty) // dead, with a dead if/else and loop inside
	f.I32Const(99).If(wasm.BlockEmpty).Else().End()
	f.Loop(wasm.BlockEmpty).Br(0).End()
	f.End()
	f.Op(wasm.OpUnreachable)
	f.Else() // live again: the if's false edge lands here
	f.I32Const(3)
	f.End()
	f.End()
	f.Op(wasm.OpReturn)
	f.I32Const(99).Op(wasm.OpDrop) // dead up to the function's end
	f.End()
	b.Export("pick", f.Idx)
	m := b.Module()

	code, err := rewriter.Translate(m, 0, &m.Funcs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range code.Instrs {
		if in.Op == wasm.OpI32Const && in.Imm == 99 || in.Op == wasm.OpUnreachable {
			t.Errorf("dead %v survived translation", in.Op)
		}
	}
	inst, err := engine.New(engines.Wasm3Like(), nil).Instantiate(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for arg, want := range map[int32]int32{1: 7, 0: 3} {
		got, err := inst.Call("pick", wasm.ValI32(arg))
		if err != nil {
			t.Fatal(err)
		}
		if got[0].I32() != want {
			t.Errorf("pick(%d) = %d, want %d", arg, got[0].I32(), want)
		}
	}
}

// TestRewriterEndToEnd runs a realistic program through the tier preset.
func TestRewriterEndToEnd(t *testing.T) {
	b := wasm.NewBuilder()
	b.AddMemory(1, 1)
	f := b.NewFunc("collatz", wasm.FuncType{
		Params:  []wasm.ValueType{wasm.I32},
		Results: []wasm.ValueType{wasm.I32},
	})
	steps := f.AddLocal(wasm.I32)
	f.Block(wasm.BlockEmpty)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32LeS).BrIf(1)
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32And)
	f.If(wasm.BlockEmpty)
	f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul).I32Const(1).Op(wasm.OpI32Add).LocalSet(0)
	f.Else()
	f.LocalGet(0).I32Const(2).Op(wasm.OpI32DivU).LocalSet(0)
	f.End()
	f.LocalGet(steps).I32Const(1).Op(wasm.OpI32Add).LocalSet(steps)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(steps)
	f.End()
	b.Export("collatz", f.Idx)

	inst, err := engine.New(engines.Wasm3Like(), nil).Instantiate(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("collatz", wasm.ValI32(27))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I32() != 111 {
		t.Errorf("collatz(27) = %d, want 111", got[0].I32())
	}
}
