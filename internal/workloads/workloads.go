// Package workloads synthesizes the three benchmark suites of the
// paper's evaluation: PolyBenchC (28 numerical kernels), Libsodium (39
// cryptographic primitive benchmarks) and Ostrich (11 numerical/graph
// kernels). The original suites are C code compiled to Wasm; here each
// line item is generated directly as a Wasm module with the same
// instruction mix (f64 loop nests for PolyBench, i32/i64 bit mixing for
// Libsodium, mixed numeric/irregular access for Ostrich), one module per
// line item, exporting:
//
//	_start    () -> ()   the workload entry point (what gets timed)
//	checksum  () -> i64  a result digest, letting the harness verify
//	                     that every engine tier computed the same thing
//
// Each item also carries an "early-return" variant (the paper's m0
// module) used to bound per-module setup time, and the suite provides
// Mnop, the paper's minimal module, for VM startup measurement.
package workloads

import (
	"fmt"

	"wizgo/internal/wasm"
)

// Item is one benchmark line item.
type Item struct {
	Suite string
	Name  string
	// Bytes is the full module; BytesM0 is the same module whose
	// _start returns immediately (setup-time probe).
	Bytes   []byte
	BytesM0 []byte
}

// Suite names.
const (
	SuitePolyBench = "polybench"
	SuiteLibsodium = "libsodium"
	SuiteOstrich   = "ostrich"
)

// All returns every line item of the three suites: 28 + 39 + 11 = 78.
func All() []Item {
	var items []Item
	items = append(items, PolyBench()...)
	items = append(items, Libsodium()...)
	items = append(items, Ostrich()...)
	return items
}

// Select returns the line items of one suite, or of all three when suite
// is "" or "all", keeping only the first perSuite items of each suite
// when perSuite is positive. A selection that comes out empty — a name
// that is not a suite, a negative perSuite — is an error: the tools
// built on this report "N items checked", and N = 0 must not read as
// success.
func Select(suite string, perSuite int) ([]Item, error) {
	var items []Item
	all := suite == "" || suite == "all"
	for _, s := range []struct {
		name string
		gen  func() []Item
	}{{SuitePolyBench, PolyBench}, {SuiteLibsodium, Libsodium}, {SuiteOstrich, Ostrich}} {
		if perSuite < 0 || !(all || suite == s.name) {
			continue
		}
		got := s.gen()
		if perSuite > 0 && perSuite < len(got) {
			got = got[:perSuite]
		}
		items = append(items, got...)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("workloads: suite %q, %d items per suite selects nothing (suites: %s, %s, %s, or all)",
			suite, perSuite, SuitePolyBench, SuiteLibsodium, SuiteOstrich)
	}
	return items, nil
}

// Mnop returns the paper's minimal module: a single exported function
// that just returns (used to measure bare VM startup).
func Mnop() []byte {
	b := wasm.NewBuilder()
	f := b.NewFunc("_start", wasm.FuncType{})
	f.End()
	b.Export("_start", f.Idx)
	return b.Encode()
}

// gen builds an item twice: the real workload and the early-return (m0)
// variant.
func gen(suite, name string, build func(k *K)) Item {
	return Item{
		Suite:   suite,
		Name:    name,
		Bytes:   build2(build, false),
		BytesM0: build2(build, true),
	}
}

func build2(build func(k *K), early bool) []byte {
	k := newK(early)
	build(k)
	return k.finish()
}

// K is the kernel-construction context: a module with one linear memory,
// a checksum global, and a _start function under construction.
type K struct {
	B     *wasm.Builder
	F     *wasm.FuncBuilder
	early bool
	// ck is a mutable i64 global accumulating the checksum.
	ck uint32
}

func newK(early bool) *K {
	b := wasm.NewBuilder()
	k := &K{B: b, early: early}
	b.AddMemory(16, 16) // 1 MiB
	k.ck = b.AddGlobal(wasm.I64, true, wasm.ValI64(0))
	k.F = b.NewFunc("_start", wasm.FuncType{})
	if early {
		// The paper's m0: insert an early return in _start.
		k.F.Op(wasm.OpReturn)
	}
	return k
}

func (k *K) finish() []byte {
	k.F.Finish()
	b := k.B
	b.Export("_start", k.F.Idx)
	cs := b.NewFunc("checksum", wasm.FuncType{Results: []wasm.ValueType{wasm.I64}})
	cs.GlobalGet(k.ck).End()
	b.Export("checksum", cs.Idx)
	return b.Encode()
}

// Mix folds the i64 on top of the stack into the checksum global.
func (k *K) Mix() {
	f := k.F
	f.GlobalGet(k.ck)
	f.Op(wasm.OpI64Add)
	f.I64Const(-7046029254386353131)
	f.Op(wasm.OpI64Xor)
	f.I64Const(31).Op(wasm.OpI64Rotl)
	f.GlobalSet(k.ck)
}

// MixF64 folds the f64 on top of the stack into the checksum.
func (k *K) MixF64() {
	k.F.Op(wasm.OpI64ReinterpretF64)
	k.Mix()
}

// ForI32 emits a counted loop: for local := start; local < end; local++
// { body() }. end must be a positive constant; body must leave the
// operand stack balanced.
func (k *K) ForI32(local uint32, start, end int32, body func()) {
	ForI32Func(k.F, local, start, end, body)
}

// ForI32Func is ForI32 over an arbitrary function under construction
// (used by kernels that define helper functions, e.g. nqueens).
func ForI32Func(f *wasm.FuncBuilder, local uint32, start, end int32, body func()) {
	f.I32Const(start).LocalSet(local)
	if start >= end {
		return
	}
	f.Loop(wasm.BlockEmpty)
	body()
	f.LocalGet(local).I32Const(1).Op(wasm.OpI32Add).LocalTee(local)
	f.I32Const(end).Op(wasm.OpI32LtS)
	f.BrIf(0)
	f.End()
}

// ForI32N is ForI32 with the bound in another local.
func (k *K) ForI32N(local, endLocal uint32, body func()) {
	f := k.F
	f.I32Const(0).LocalSet(local)
	f.Block(wasm.BlockEmpty)
	f.LocalGet(endLocal).I32Const(0).Op(wasm.OpI32LeS).BrIf(0)
	f.Loop(wasm.BlockEmpty)
	body()
	f.LocalGet(local).I32Const(1).Op(wasm.OpI32Add).LocalTee(local)
	f.LocalGet(endLocal).Op(wasm.OpI32LtS)
	f.BrIf(0)
	f.End()
	f.End()
}

// Mat is a dense row-major f64 matrix in linear memory.
type Mat struct {
	Base int32
	Cols int32
}

// ElemAddr pushes the byte address of m[i][j] (locals i, j).
func (k *K) ElemAddr(m Mat, i, j uint32) {
	f := k.F
	f.LocalGet(i).I32Const(m.Cols).Op(wasm.OpI32Mul)
	f.LocalGet(j).Op(wasm.OpI32Add)
	f.I32Const(8).Op(wasm.OpI32Mul)
	f.I32Const(m.Base).Op(wasm.OpI32Add)
}

// LoadEl pushes m[i][j].
func (k *K) LoadEl(m Mat, i, j uint32) {
	k.ElemAddr(m, i, j)
	k.F.Load(wasm.OpF64Load, 0)
}

// StoreEl stores the f64 on top of the stack to m[i][j]. The value must
// be pushed by val after the address.
func (k *K) StoreEl(m Mat, i, j uint32, val func()) {
	k.ElemAddr(m, i, j)
	val()
	k.F.Store(wasm.OpF64Store, 0)
}

// VecAddr pushes the byte address of v[i] for an f64 vector at base.
func (k *K) VecAddr(base int32, i uint32) {
	f := k.F
	f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul)
	f.I32Const(base).Op(wasm.OpI32Add)
}

// LoadVec pushes v[i].
func (k *K) LoadVec(base int32, i uint32) {
	k.VecAddr(base, i)
	k.F.Load(wasm.OpF64Load, 0)
}

// StoreVec stores val() to v[i].
func (k *K) StoreVec(base int32, i uint32, val func()) {
	k.VecAddr(base, i)
	val()
	k.F.Store(wasm.OpF64Store, 0)
}

// InitMat fills m (rows x m.Cols) with deterministic data derived from
// the indices, using locals i and j.
func (k *K) InitMat(m Mat, rows int32, i, j uint32) {
	f := k.F
	k.ForI32(i, 0, rows, func() {
		k.ForI32(j, 0, m.Cols, func() {
			k.StoreEl(m, i, j, func() {
				// (i*7 + j*13) % 97 / 97.0 + 0.5
				f.LocalGet(i).I32Const(7).Op(wasm.OpI32Mul)
				f.LocalGet(j).I32Const(13).Op(wasm.OpI32Mul)
				f.Op(wasm.OpI32Add)
				f.I32Const(97).Op(wasm.OpI32RemS)
				f.Op(wasm.OpF64ConvertI32S)
				f.F64Const(1.0 / 97.0).Op(wasm.OpF64Mul)
				f.F64Const(0.5).Op(wasm.OpF64Add)
			})
		})
	})
}

// InitVec fills an f64 vector of n elements at base.
func (k *K) InitVec(base int32, n int32, i uint32) {
	f := k.F
	k.ForI32(i, 0, n, func() {
		k.StoreVec(base, i, func() {
			f.LocalGet(i).I32Const(11).Op(wasm.OpI32Mul)
			f.I32Const(53).Op(wasm.OpI32RemS)
			f.Op(wasm.OpF64ConvertI32S)
			f.F64Const(1.0 / 53.0).Op(wasm.OpF64Mul)
			f.F64Const(0.25).Op(wasm.OpF64Add)
		})
	})
}

// ChecksumMat folds every element of m into the checksum.
func (k *K) ChecksumMat(m Mat, rows int32, i, j uint32) {
	k.ForI32(i, 0, rows, func() {
		k.ForI32(j, 0, m.Cols, func() {
			k.LoadEl(m, i, j)
			k.MixF64()
		})
	})
}

// ChecksumVec folds v[0..n) into the checksum.
func (k *K) ChecksumVec(base, n int32, i uint32) {
	k.ForI32(i, 0, n, func() {
		k.LoadVec(base, i)
		k.MixF64()
	})
}

// ChecksumMem folds n bytes at base into the checksum as i64 words.
func (k *K) ChecksumMem(base, n int32, i uint32) {
	f := k.F
	k.ForI32(i, 0, n/8, func() {
		f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul)
		f.I32Const(base).Op(wasm.OpI32Add)
		f.Load(wasm.OpI64Load, 0)
		k.Mix()
	})
}

// Names collects the line-item names of a suite, for table rendering.
func Names(items []Item) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = fmt.Sprintf("%s/%s", it.Suite, it.Name)
	}
	return names
}
