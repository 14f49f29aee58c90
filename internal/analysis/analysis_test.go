package analysis

import (
	"testing"

	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// analyze builds, decodes, validates and analyzes a module, returning
// the per-function infos with their read-only bits set.
func analyze(t *testing.T, b *wasm.Builder) ([]validate.FuncInfo, Stats) {
	t.Helper()
	m, err := wasm.Decode(b.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	infos, err := validate.Module(m)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	st := Module(m, infos)
	return infos, st
}

func TestWritesMemoryPropagation(t *testing.T) {
	b := wasm.NewBuilder()
	ft := wasm.FuncType{}
	host := b.ImportFunc("env", "host", ft)
	b.AddMemory(1, 1)
	b.AddTable(1)
	ti := b.AddType(ft)

	reader := b.NewFunc("reader", ft) // loads only
	reader.I32Const(0)
	reader.Load(wasm.OpI32Load, 0)
	reader.Op(wasm.OpDrop)
	reader.End()

	caller := b.NewFunc("caller", ft) // calls the reader
	caller.Call(reader.Idx)
	caller.End()

	writer := b.NewFunc("writer", ft) // stores
	writer.I32Const(0).I32Const(1)
	writer.Store(wasm.OpI32Store, 0)
	writer.End()

	indirect := b.NewFunc("indirect", ft) // calls the writer
	indirect.Call(writer.Idx)
	indirect.End()

	// Writers by construction rather than by store: an import has
	// unknown effects, a call_indirect an unknown callee, and grow /
	// fill / copy change memory without a store opcode.
	hostCaller := b.NewFunc("hostCaller", ft)
	hostCaller.Call(host)
	hostCaller.End()

	tableCaller := b.NewFunc("tableCaller", ft)
	tableCaller.I32Const(0).CallIndirect(ti)
	tableCaller.End()

	grower := b.NewFunc("grower", ft)
	grower.I32Const(0).MemoryGrow().Op(wasm.OpDrop)
	grower.End()

	filler := b.NewFunc("filler", ft)
	filler.I32Const(0).I32Const(0).I32Const(0).MemoryFill()
	filler.End()

	copier := b.NewFunc("copier", ft)
	copier.I32Const(0).I32Const(0).I32Const(0).MemoryCopy()
	copier.End()

	infos, st := analyze(t, b)
	want := []bool{true, true, false, false, false, false, false, false, false}
	for i, w := range want {
		if infos[i].ReadOnly != w {
			t.Errorf("func %d: ReadOnly = %v, want %v", i, infos[i].ReadOnly, w)
		}
	}
	if st.ReadOnly != 2 || st.Funcs != len(want) {
		t.Errorf("stats = %+v, want 2 read-only of %d", st, len(want))
	}
	if st != StatsFromInfos(infos) {
		t.Errorf("Module stats %+v differ from StatsFromInfos %+v", st, StatsFromInfos(infos))
	}
}

// TestNoMemoryModule: a pure-local loop in a module without a memory is
// read-only, and nothing else is reported about it.
func TestNoMemoryModule(t *testing.T) {
	b := wasm.NewBuilder()
	f := b.NewFunc("f", wasm.FuncType{})
	i := f.AddLocal(wasm.I32)
	f.I32Const(0).LocalSet(i)
	f.Loop(wasm.BlockEmpty)
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
	f.I32Const(10).Op(wasm.OpI32LtS)
	f.BrIf(0)
	f.End()
	f.End()
	infos, st := analyze(t, b)
	if !infos[0].ReadOnly {
		t.Error("ReadOnly = false for a pure-local function")
	}
	if st.BoundsProven != 0 || st.PollsElided != 0 {
		t.Errorf("stats = %+v: BoundsProven and PollsElided must stay zero", st)
	}
}

// TestZeroValueIsConservative: a FuncInfo the analysis never saw (length
// mismatch leaves infos untouched) must read as a writer.
func TestZeroValueIsConservative(t *testing.T) {
	b := wasm.NewBuilder()
	f := b.NewFunc("f", wasm.FuncType{})
	f.End()
	m, err := wasm.Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]validate.FuncInfo, 2) // wrong length
	if st := Module(m, infos); st != (Stats{}) {
		t.Errorf("stats = %+v on mismatched infos, want zero", st)
	}
	for i := range infos {
		if infos[i].ReadOnly {
			t.Errorf("infos[%d].ReadOnly set on a function that was never analyzed", i)
		}
	}
}
