package validate_test

import (
	"reflect"
	"strings"
	"testing"

	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

func mod(t *testing.T, build func(b *wasm.Builder)) *wasm.Module {
	t.Helper()
	b := wasm.NewBuilder()
	build(b)
	return b.Module()
}

func expectOK(t *testing.T, build func(b *wasm.Builder)) []validate.FuncInfo {
	t.Helper()
	infos, err := validate.Module(mod(t, build))
	if err != nil {
		t.Fatalf("expected valid module: %v", err)
	}
	return infos
}

func expectErr(t *testing.T, substr string, build func(b *wasm.Builder)) {
	t.Helper()
	_, err := validate.Module(mod(t, build))
	if err == nil {
		t.Fatalf("expected validation error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestValidSimple(t *testing.T) {
	infos := expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(1).I32Const(2).Op(wasm.OpI32Add).End()
	})
	if infos[0].MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", infos[0].MaxStack)
	}
}

func TestTypeMismatch(t *testing.T) {
	expectErr(t, "type mismatch", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(1).F64Const(2).Op(wasm.OpI32Add).End()
	})
}

func TestStackUnderflow(t *testing.T) {
	expectErr(t, "underflow", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.Op(wasm.OpDrop).End()
	})
}

func TestSuperfluousValues(t *testing.T) {
	expectErr(t, "superfluous", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.I32Const(1).End()
	})
}

func TestBadLocalIndex(t *testing.T) {
	expectErr(t, "local index", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.LocalGet(3).Op(wasm.OpDrop).End()
	})
}

func TestBranchDepth(t *testing.T) {
	expectErr(t, "branch depth", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.Br(5).End()
	})
}

func TestIfWithoutElseTypeRule(t *testing.T) {
	expectErr(t, "matching params and results", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(1)
		f.If(wasm.BlockVal(wasm.I32))
		f.I32Const(2)
		f.End()
		f.End()
	})
}

func TestGlobalSetImmutable(t *testing.T) {
	expectErr(t, "immutable", func(b *wasm.Builder) {
		g := b.AddGlobal(wasm.I32, false, wasm.ValI32(1))
		f := b.NewFunc("f", wasm.FuncType{})
		f.I32Const(2).GlobalSet(g).End()
	})
}

func TestMemoryRequired(t *testing.T) {
	expectErr(t, "without declared memory", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(0).Load(wasm.OpI32Load, 0).End()
	})
}

func TestAlignmentCheck(t *testing.T) {
	expectErr(t, "alignment", func(b *wasm.Builder) {
		b.AddMemory(1, 1)
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(0)
		f.Raw(byte(wasm.OpI32Load))
		f.Raw(wasm.AppendU32(nil, 5)...) // align 2^5 > natural 2^2
		f.Raw(wasm.AppendU32(nil, 0)...)
		f.End()
	})
}

func TestUnreachableCodePolymorphism(t *testing.T) {
	// After br, the stack is polymorphic: dropping and pushing anything
	// must validate.
	expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.Block(wasm.BlockEmpty)
		f.Br(0)
		f.Op(wasm.OpDrop)
		f.Op(wasm.OpDrop)
		f.End()
		f.I32Const(1)
		f.End()
	})
}

func TestBrTableArityMismatch(t *testing.T) {
	expectErr(t, "inconsistent arity", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.Block(wasm.BlockVal(wasm.I32)) // arity 1
		f.Block(wasm.BlockEmpty)         // arity 0
		f.I32Const(0).I32Const(0)
		f.BrTable([]uint32{0}, 1)
		f.End()
		f.Op(wasm.OpDrop)
		f.End()
		f.End()
	})
}

func TestSelectRefRejected(t *testing.T) {
	expectErr(t, "numeric operands", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.RefNull(wasm.ExternRef).RefNull(wasm.ExternRef).I32Const(1)
		f.Op(wasm.OpSelect)
		f.Op(wasm.OpDrop)
		f.End()
	})
}

func TestStartMustBeNullary(t *testing.T) {
	expectErr(t, "start function", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
		f.End()
		b.SetStart(f.Idx)
	})
}

// TestSidetableShape checks the sidetable structure of a known body.
func TestSidetableShape(t *testing.T) {
	infos := expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}})
		f.LocalGet(0)
		f.If(wasm.BlockVal(wasm.I32)) // entry 0: false edge
		f.I32Const(1)
		f.Else() // entry 1: skip else
		f.I32Const(2)
		f.End()
		f.End()
	})
	st := infos[0].Sidetable
	if len(st) != 2 {
		t.Fatalf("sidetable has %d entries, want 2", len(st))
	}
	// The false edge must target just after the else opcode, with the
	// else's own entry consumed.
	if st[0].TargetSTP != 2 {
		t.Errorf("if false edge TargetSTP = %d, want 2", st[0].TargetSTP)
	}
	if st[0].TargetIP <= uint32(0) || st[1].TargetIP <= st[0].TargetIP {
		t.Errorf("sidetable target order wrong: %+v", st)
	}
	if len(infos[0].Owners) != 2 || infos[0].Owners[0] > infos[0].Owners[1] {
		t.Errorf("owners not sorted: %v", infos[0].Owners)
	}
}

func TestSidetableLoopBackedge(t *testing.T) {
	infos := expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		i := f.AddLocal(wasm.I32)
		f.Loop(wasm.BlockEmpty)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
		f.I32Const(10).Op(wasm.OpI32LtS)
		f.BrIf(0)
		f.End()
		f.End()
	})
	st := infos[0].Sidetable
	if len(st) != 1 {
		t.Fatalf("sidetable has %d entries, want 1", len(st))
	}
	// Backward target: loop body start (after the loop header byte+bt).
	if st[0].TargetIP != 2 {
		t.Errorf("backedge TargetIP = %d, want 2", st[0].TargetIP)
	}
	if st[0].TargetSTP != 0 {
		t.Errorf("backedge TargetSTP = %d, want 0", st[0].TargetSTP)
	}
}

func TestSTPForPC(t *testing.T) {
	fi := &validate.FuncInfo{Owners: []uint32{4, 9, 9, 15}}
	cases := map[int]int{0: 0, 4: 0, 5: 1, 9: 1, 10: 3, 15: 3, 16: 4}
	for pc, want := range cases {
		if got := fi.STPForPC(pc); got != want {
			t.Errorf("STPForPC(%d) = %d, want %d", pc, got, want)
		}
	}
}

func TestNumSlots(t *testing.T) {
	infos := expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
		f.AddLocal(wasm.F64)
		f.I32Const(1).I32Const(2).I32Const(3).Op(wasm.OpI32Add).Op(wasm.OpI32Add).Op(wasm.OpDrop)
		f.End()
	})
	if infos[0].NumSlots() != 2+3 {
		t.Errorf("NumSlots = %d, want 5", infos[0].NumSlots())
	}
	if infos[0].NumParams != 1 {
		t.Errorf("NumParams = %d", infos[0].NumParams)
	}
}

func TestExportIndexChecks(t *testing.T) {
	m := mod(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{})
		f.End()
	})
	m.Exports = append(m.Exports, wasm.Export{Name: "x", Kind: wasm.ImportFunc, Idx: 42})
	if _, err := validate.Module(m); err == nil {
		t.Error("expected export index error")
	}
}

// TestMemoryLimitChecks: a defined or imported memory whose minimum or
// maximum exceeds the spec's 65536 pages is invalid. Instantiation
// allocates the minimum, so such a module used to pass validation and
// then end the process with a fatal out-of-memory.
func TestMemoryLimitChecks(t *testing.T) {
	empty := func(b *wasm.Builder) { b.NewFunc("f", wasm.FuncType{}).End() }
	for _, pages := range []uint32{wasm.MaxPages + 1, 1 << 20, 0xFFFFFFFF} {
		for _, lim := range []wasm.Limits{{Min: pages}, {Min: 1, Max: pages, HasMax: true}} {
			defined := mod(t, empty)
			defined.Memories = append(defined.Memories, lim)
			imported := mod(t, empty)
			imported.Imports = append(imported.Imports, wasm.Import{
				Module: "env", Name: "mem", Kind: wasm.ImportMemory, Lim: lim,
			})
			for name, m := range map[string]*wasm.Module{"defined": defined, "imported": imported} {
				if _, err := validate.Module(m); err == nil {
					t.Errorf("%s memory with limits %+v validated", name, lim)
				}
			}
		}
	}
	m := mod(t, empty)
	m.Memories = append(m.Memories, wasm.Limits{Min: wasm.MaxPages, Max: wasm.MaxPages, HasMax: true})
	if _, err := validate.Module(m); err != nil {
		t.Errorf("a memory of exactly %d pages: %v", wasm.MaxPages, err)
	}
}

// TestWrappedPrefixOpcodeRejected: FC EA FE 03 is the 0xFC sub-opcode
// 0xFF6A; folded into a uint16 it used to wrap onto i32.add, so this
// body validated (and every tier ran it as 1+2).
func TestWrappedPrefixOpcodeRejected(t *testing.T) {
	expectErr(t, "sub-opcode", func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		f.I32Const(1).I32Const(2).Raw(wasm.PrefixFC, 0xEA, 0xFE, 0x03).End()
	})
}

// TestBrTableCountBounded: a br_table whose target count exceeds the
// bytes left in the body is an error before the vector is sized — a
// count of 2^32-1 used to index an empty slice, one of 2^32-2 to ask for
// 16 GiB.
func TestBrTableCountBounded(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, 0xFFFFFFFE, 1 << 20} {
		_, err := validate.Module(mod(t, func(b *wasm.Builder) {
			f := b.NewFunc("f", wasm.FuncType{})
			f.I32Const(0).Raw(byte(wasm.OpBrTable)).Raw(wasm.AppendU32(nil, n)...).Raw(0, 0).End()
		}))
		if err == nil {
			t.Errorf("br_table with %d targets in a 4-byte tail validated", n)
		}
	}
}

// TestSidetableEndFixups: every forward branch to one label — from the
// then-arm, carried across the else, from the else-arm, and the else's
// own skip entry — is patched to the same end, and a nested block's
// branches to its own end are not disturbed by it.
func TestSidetableEndFixups(t *testing.T) {
	var body []byte
	infos := expectOK(t, func(b *wasm.Builder) {
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
		f.LocalGet(0)
		f.If(wasm.BlockEmpty) // entry 0: false edge
		f.LocalGet(0).BrIf(0) // entry 1: to the if's end
		f.Block(wasm.BlockEmpty)
		f.LocalGet(0).BrIf(0) // entry 2: to the inner block's end
		f.LocalGet(0).BrIf(1) // entry 3: to the if's end
		f.End()
		f.Else()              // entry 4: skip the else-arm
		f.LocalGet(0).BrIf(0) // entry 5: to the if's end
		f.End()
		f.End()
		f.Finish()
		body = f.Body()
	})
	st := infos[0].Sidetable
	if len(st) != 6 {
		t.Fatalf("sidetable has %d entries, want 6", len(st))
	}
	ifEnd := uint32(len(body) - 1) // just past the if's end, at the function's
	for _, i := range []int{1, 3, 4, 5} {
		if st[i].TargetIP != ifEnd || st[i].TargetSTP != 6 {
			t.Errorf("entry %d targets ip %d stp %d, want %d and 6", i, st[i].TargetIP, st[i].TargetSTP, ifEnd)
		}
	}
	if st[2].TargetIP >= st[4].TargetIP || st[2].TargetSTP != 4 {
		t.Errorf("inner block's branch targets ip %d stp %d, want before the else and 4", st[2].TargetIP, st[2].TargetSTP)
	}
	if st[0].TargetSTP != 5 {
		t.Errorf("false edge TargetSTP = %d, want 5", st[0].TargetSTP)
	}
}

// TestValidatorReuseKeepsFuncInfosApart: one validator walks all of a
// module's functions through shared buffers, so each FuncInfo must own
// exact-size copies that a later function's walk cannot overwrite.
func TestValidatorReuseKeepsFuncInfosApart(t *testing.T) {
	build := func(n int) func(b *wasm.Builder) {
		return func(b *wasm.Builder) {
			for i := 0; i < n; i++ {
				f := b.NewFunc("", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
				for j := 0; j <= i; j++ {
					f.Block(wasm.BlockEmpty).LocalGet(0).BrIf(0).End()
				}
				if i > 0 {
					f.LocalGet(0).Call(uint32(i - 1))
				}
				f.End()
			}
		}
	}
	infos := expectOK(t, build(4))
	for i := range infos {
		fi := &infos[i]
		m := mod(t, build(i+1))
		alone := new(validate.FuncInfo)
		if err := validate.Function(m, uint32(i), &m.Funcs[i], alone); err != nil {
			t.Fatal(err)
		}
		if len(fi.Sidetable) != i+1 || !reflect.DeepEqual(fi, alone) {
			t.Errorf("func %d: shared-validator info %+v differs from a fresh walk %+v", i, fi, alone)
		}
		if cap(fi.Sidetable) != len(fi.Sidetable) || cap(fi.Owners) != len(fi.Owners) || cap(fi.Callees) != len(fi.Callees) {
			t.Errorf("func %d: FuncInfo slices keep spare capacity", i)
		}
	}
	if infos[0].Callees != nil || !reflect.DeepEqual(infos[3].Callees, []uint32{2}) {
		t.Errorf("callees = %v, %v", infos[0].Callees, infos[3].Callees)
	}
}
