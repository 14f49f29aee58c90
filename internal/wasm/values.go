// Package wasm implements the WebAssembly binary format: the type system,
// the instruction set, a module model, and a decoder and encoder for the
// binary format. It is the foundation every other package in this
// repository builds on (the validator, the interpreter, and the
// compilers).
//
// The subset implemented is the Wasm core spec (MVP) plus the extensions
// the paper's engines rely on: multi-value blocks and functions,
// sign-extension operators, saturating truncations, bulk memory
// (memory.copy / memory.fill), and reference types (externref / funcref)
// sufficient for GC-root experiments. SIMD (v128), threads and exception
// handling are intentionally out of scope; the evaluation does not use
// them.
package wasm

import (
	"fmt"
	"math"
)

// ValueType is a Wasm value type. The encodings match the binary format.
type ValueType byte

const (
	I32       ValueType = 0x7F
	I64       ValueType = 0x7E
	F32       ValueType = 0x7D
	F64       ValueType = 0x7C
	FuncRef   ValueType = 0x70
	ExternRef ValueType = 0x6F
)

// IsNum reports whether t is a numeric type.
func (t ValueType) IsNum() bool {
	switch t {
	case I32, I64, F32, F64:
		return true
	}
	return false
}

// IsRef reports whether t is a reference type.
func (t ValueType) IsRef() bool { return t == FuncRef || t == ExternRef }

// Valid reports whether t is one of the supported value types.
func (t ValueType) Valid() bool { return t.IsNum() || t.IsRef() }

var valueTypes = [...]ValueType{I32, I64, F32, F64, FuncRef, ExternRef}

// Single returns the one-element list {t} — the result list of a
// single-result block type — as a view of a static table, so walking a
// body allocates nothing per block. The caller must not modify it. An
// invalid t yields nil.
func (t ValueType) Single() []ValueType {
	for i, vt := range valueTypes {
		if vt == t {
			return valueTypes[i : i+1 : i+1]
		}
	}
	return nil
}

func (t ValueType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	case FuncRef:
		return "funcref"
	case ExternRef:
		return "externref"
	}
	return fmt.Sprintf("valuetype(0x%02x)", byte(t))
}

// Tag is the dynamic value tag stored alongside each value stack slot when
// the engine runs with value tags enabled. Tags let a stack walker (and
// the host garbage collector) classify any slot in memory without static
// metadata — the design choice the paper evaluates against stackmaps.
type Tag byte

const (
	// TagVoid marks a slot that holds no live value (e.g. above the
	// operand stack top, or a slot whose tag was never stored under
	// on-demand tagging).
	TagVoid Tag = iota
	TagI32
	TagI64
	TagF32
	TagF64
	TagFuncRef
	TagRef // externref; the only tag the GC scans for roots
)

// TagOf returns the tag corresponding to a value type.
func TagOf(t ValueType) Tag {
	switch t {
	case I32:
		return TagI32
	case I64:
		return TagI64
	case F32:
		return TagF32
	case F64:
		return TagF64
	case FuncRef:
		return TagFuncRef
	case ExternRef:
		return TagRef
	}
	return TagVoid
}

func (g Tag) String() string {
	switch g {
	case TagVoid:
		return "void"
	case TagI32:
		return "i32"
	case TagI64:
		return "i64"
	case TagF32:
		return "f32"
	case TagF64:
		return "f64"
	case TagFuncRef:
		return "funcref"
	case TagRef:
		return "ref"
	}
	return fmt.Sprintf("tag(%d)", byte(g))
}

// IsRef reports whether the tag marks a GC-scannable reference slot.
func (g Tag) IsRef() bool { return g == TagRef }

// Value slots are raw uint64 bit patterns; these helpers convert between
// Go values and slot representations. They are used by the interpreter,
// the machine executor, host call marshalling, and tests.

// BoxI32 stores a signed 32-bit integer in a slot.
func BoxI32(v int32) uint64 { return uint64(uint32(v)) }

// BoxI64 stores a signed 64-bit integer in a slot.
func BoxI64(v int64) uint64 { return uint64(v) }

// BoxF32 stores a 32-bit float in a slot.
func BoxF32(v float32) uint64 { return uint64(math.Float32bits(v)) }

// BoxF64 stores a 64-bit float in a slot.
func BoxF64(v float64) uint64 { return math.Float64bits(v) }

// UnboxI32 reads a slot as a signed 32-bit integer.
func UnboxI32(s uint64) int32 { return int32(uint32(s)) }

// UnboxI64 reads a slot as a signed 64-bit integer.
func UnboxI64(s uint64) int64 { return int64(s) }

// UnboxF32 reads a slot as a 32-bit float.
func UnboxF32(s uint64) float32 { return math.Float32frombits(uint32(s)) }

// UnboxF64 reads a slot as a 64-bit float.
func UnboxF64(s uint64) float64 { return math.Float64frombits(s) }

// NullRef is the slot representation of a null reference. Non-null
// references are 1-based handles into the host heap (see internal/heap)
// or 1-based function indices for funcref.
const NullRef uint64 = 0

// Value is a typed Wasm value used at API boundaries (host calls, test
// assertions, CLI output). Inside the engine values live untyped in
// uint64 slots.
type Value struct {
	Type ValueType
	Bits uint64
}

// ValI32 constructs an i32 Value.
func ValI32(v int32) Value { return Value{I32, BoxI32(v)} }

// ValI64 constructs an i64 Value.
func ValI64(v int64) Value { return Value{I64, BoxI64(v)} }

// ValF32 constructs an f32 Value.
func ValF32(v float32) Value { return Value{F32, BoxF32(v)} }

// ValF64 constructs an f64 Value.
func ValF64(v float64) Value { return Value{F64, BoxF64(v)} }

// ValRef constructs an externref Value from a heap handle.
func ValRef(handle uint64) Value { return Value{ExternRef, handle} }

// I32 reads the value as int32.
func (v Value) I32() int32 { return UnboxI32(v.Bits) }

// I64 reads the value as int64.
func (v Value) I64() int64 { return UnboxI64(v.Bits) }

// F32 reads the value as float32.
func (v Value) F32() float32 { return UnboxF32(v.Bits) }

// F64 reads the value as float64.
func (v Value) F64() float64 { return UnboxF64(v.Bits) }

func (v Value) String() string {
	switch v.Type {
	case I32:
		return fmt.Sprintf("i32:%d", v.I32())
	case I64:
		return fmt.Sprintf("i64:%d", v.I64())
	case F32:
		return fmt.Sprintf("f32:%g", v.F32())
	case F64:
		return fmt.Sprintf("f64:%g", v.F64())
	case FuncRef:
		return fmt.Sprintf("funcref:%d", v.Bits)
	case ExternRef:
		if v.Bits == NullRef {
			return "externref:null"
		}
		return fmt.Sprintf("externref:%d", v.Bits)
	}
	return fmt.Sprintf("value(%s:0x%x)", v.Type, v.Bits)
}
