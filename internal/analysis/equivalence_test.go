package analysis_test

import (
	"fmt"
	"reflect"
	"testing"

	"wizgo/internal/analysis"
	"wizgo/internal/difftest"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// The reference below is the standalone analysis this package ran until
// the validator began recording its inputs: a second decode of every
// body for direct writes and call sites, then the call-graph fixpoint.
// It is kept here, written against nothing but wasm.Reader, so the fused
// path (validate.FuncInfo.NoWrites / Callees → analysis.Module) is
// checked against an implementation that shares no code with it.

type refPre struct {
	callees []uint32
	writes  bool
}

func refPrescan(f *wasm.Func) refPre {
	var pre refPre
	undecodable := refPre{writes: true}
	r := wasm.NewReader(f.Body)
	for r.Len() > 0 {
		op, err := r.ReadOpcode()
		if err != nil {
			return undecodable
		}
		if op == wasm.OpCall {
			idx, err := r.U32()
			if err != nil {
				return undecodable
			}
			pre.callees = append(pre.callees, idx)
			continue
		}
		if err := r.SkipImm(op); err != nil {
			return undecodable
		}
		switch op {
		case wasm.OpI32Store8, wasm.OpI64Store8,
			wasm.OpI32Store16, wasm.OpI64Store16,
			wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32,
			wasm.OpI64Store, wasm.OpF64Store,
			wasm.OpMemoryGrow, wasm.OpMemoryFill, wasm.OpMemoryCopy,
			wasm.OpCallIndirect:
			pre.writes = true
		}
	}
	return pre
}

// refReadOnly returns the reference read-only bit of every local
// function of m.
func refReadOnly(m *wasm.Module) []bool {
	imported := m.NumImportedFuncs()
	pres := make([]refPre, len(m.Funcs))
	writes := make([]bool, len(m.Funcs))
	for i := range m.Funcs {
		pres[i] = refPrescan(&m.Funcs[i])
		writes[i] = pres[i].writes
		for _, c := range pres[i].callees {
			if int(c) < imported {
				writes[i] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, pre := range pres {
			for _, c := range pre.callees {
				if li := int(c) - imported; !writes[i] && li >= 0 && li < len(writes) && writes[li] {
					writes[i], changed = true, true
				}
			}
		}
	}
	ro := make([]bool, len(writes))
	for i, w := range writes {
		ro[i] = !w
	}
	return ro
}

// checkFacts runs the fused path on bytes and compares it with the
// reference, then runs analysis.Module a second time on the same infos
// and requires that nothing moved. It returns how many functions were
// read-only and how many were not.
func checkFacts(t *testing.T, name string, bytes []byte) (readOnly, writers int) {
	t.Helper()
	m, err := wasm.Decode(bytes)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	infos, err := validate.Module(m)
	if err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	st := analysis.Module(m, infos)
	want := refReadOnly(m)
	for i := range infos {
		if infos[i].ReadOnly != want[i] {
			t.Errorf("%s: func %d: fused ReadOnly = %v, reference %v", name, i, infos[i].ReadOnly, want[i])
		}
		if want[i] {
			readOnly++
		} else {
			writers++
		}
	}
	if st.ReadOnly != readOnly || st.Funcs != len(infos) {
		t.Errorf("%s: stats %+v, want %d read-only of %d", name, st, readOnly, len(infos))
	}
	before := append([]validate.FuncInfo(nil), infos...)
	if again := analysis.Module(m, infos); again != st || !reflect.DeepEqual(before, infos) {
		t.Errorf("%s: a second analysis.Module changed the infos or the stats (%+v then %+v)", name, st, again)
	}
	return readOnly, writers
}

// requestShape mirrors bench/'s requests-readonly / requests-dirty
// module: a straight-line _start over scattered addresses that only
// loads, or read-modify-writes, plus the checksum export.
func requestShape(dirty bool) []byte {
	b := wasm.NewBuilder()
	b.AddMemory(16, 16)
	ck := b.AddGlobal(wasm.I64, true, wasm.ValI64(0))
	start := b.NewFunc("_start", wasm.FuncType{})
	sum := start.AddLocal(wasm.I64)
	for g := 0; g < 64; g++ {
		addr := int32(g*4096*3%(16*65536) + 8*g)
		if dirty {
			start.I32Const(addr)
			start.I32Const(addr).Load(wasm.OpI64Load, 0).I64Const(int64(g) + 1).Op(wasm.OpI64Add)
			start.Store(wasm.OpI64Store, 0)
		}
		start.LocalGet(sum).I32Const(addr).Load(wasm.OpI64Load, 0).Op(wasm.OpI64Add).LocalSet(sum)
	}
	start.LocalGet(sum).GlobalSet(ck).End()
	b.Export("_start", start.Idx)
	cs := b.NewFunc("checksum", wasm.FuncType{Results: []wasm.ValueType{wasm.I64}})
	cs.GlobalGet(ck).End()
	b.Export("checksum", cs.Idx)
	return b.Encode()
}

// hostBridgeShape mirrors bench/'s host-bridge module: one loop calling
// an import, one calling a wasm-defined twin, one calling nothing.
func hostBridgeShape() []byte {
	sig := wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}}
	b := wasm.NewBuilder()
	host := b.ImportFunc("env", "bump", sig)
	local := b.NewFunc("bump_local", sig)
	local.LocalGet(0).I64Const(3).Op(wasm.OpI64Mul).End()
	for e, export := range []string{"_start", "_start_local", "_start_empty"} {
		f := b.NewFunc(export, wasm.FuncType{})
		i, x := f.AddLocal(wasm.I32), f.AddLocal(wasm.I64)
		workloads.ForI32Func(f, i, 0, 100, func() {
			f.LocalGet(x)
			switch e {
			case 0:
				f.Call(host)
			case 1:
				f.Call(local.Idx)
			}
			f.LocalSet(x)
		})
		f.End()
		b.Export(export, f.Idx)
	}
	return b.Encode()
}

// edgeShape holds the cases a syntactic scan and a validation walk could
// disagree on: writers that sit only in unreachable code, call_indirect,
// calls to imports (directly, in dead code, and two calls deep), and
// memory.size, which takes the same immediate as memory.grow.
func edgeShape() []byte {
	void := wasm.FuncType{}
	b := wasm.NewBuilder()
	host := b.ImportFunc("env", "host", void)
	b.AddMemory(1, 2)
	b.AddTable(1)
	ti := b.AddType(void)

	deadStore := b.NewFunc("deadStore", void)
	deadStore.Op(wasm.OpReturn).I32Const(0).I32Const(1).Store(wasm.OpI32Store8, 0).End()
	deadGrow := b.NewFunc("deadGrow", void)
	deadGrow.Block(wasm.BlockEmpty).Br(0).I32Const(0).MemoryGrow().Op(wasm.OpDrop).End().End()
	deadIndirect := b.NewFunc("deadIndirect", void)
	deadIndirect.Op(wasm.OpUnreachable).I32Const(0).CallIndirect(ti).End()
	deadHost := b.NewFunc("deadHost", void)
	deadHost.Op(wasm.OpReturn).Call(host).End()
	sizer := b.NewFunc("sizer", void)
	sizer.MemorySize().Op(wasm.OpDrop).End()
	loader := b.NewFunc("loader", void)
	loader.I32Const(0).Load(wasm.OpI64Load32U, 0).Op(wasm.OpDrop).End()
	viaSizer := b.NewFunc("viaSizer", void)
	viaSizer.Call(sizer.Idx).Call(loader.Idx).End()
	viaDeadHost := b.NewFunc("viaDeadHost", void)
	viaDeadHost.Call(viaSizer.Idx).Call(deadHost.Idx).End()
	two := b.NewFunc("twoDeep", void)
	two.Call(viaDeadHost.Idx).End()
	return b.Encode()
}

// TestFusedFactsMatchReference: the validator-recorded inputs yield the
// same ReadOnly bits as the standalone scan on the 78 suite items, the
// benchmark's request and host-bridge shapes, the edge cases above and
// 500 generated modules.
func TestFusedFactsMatchReference(t *testing.T) {
	items := workloads.All()
	if len(items) != 78 {
		t.Fatalf("suites hold %d items, want 78", len(items))
	}
	readOnly, writers := 0, 0
	check := func(name string, bytes []byte) {
		ro, w := checkFacts(t, name, bytes)
		readOnly, writers = readOnly+ro, writers+w
	}
	for _, it := range items {
		check(it.Suite+"/"+it.Name, it.Bytes)
	}
	check("requests-readonly", requestShape(false))
	check("requests-dirty", requestShape(true))
	check("host-bridge", hostBridgeShape())

	ro, w := checkFacts(t, "edges", edgeShape())
	if ro != 3 || w != 6 { // sizer, loader, viaSizer
		t.Errorf("edges: %d read-only and %d writers, want 3 and 6", ro, w)
	}

	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for seed := 1; seed <= seeds; seed++ {
		check(fmt.Sprintf("seed %d", seed), difftest.Generate(int64(seed), difftest.GenConfig{}).Bytes)
	}
	// Vacuity guard: both answers must occur, often.
	if readOnly < 100 || writers < 100 {
		t.Errorf("corpus has %d read-only functions and %d writers; the comparison is near-vacuous", readOnly, writers)
	}
}

// TestForeignInfosStayWriters: infos that are not the validator's output
// (rehydrated from an artifact, or built by hand) carry neither NoWrites
// nor Callees, and must come out of analysis.Module as writers, never as
// falsely read-only.
func TestForeignInfosStayWriters(t *testing.T) {
	m, err := wasm.Decode(requestShape(true))
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]validate.FuncInfo, len(m.Funcs))
	if st := analysis.Module(m, infos); st.ReadOnly != 0 {
		t.Errorf("analysis.Module proved %d functions read-only from zero-value infos", st.ReadOnly)
	}
}
