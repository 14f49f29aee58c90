package numx

import (
	"math"
	"testing"

	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Golden vectors: for every opcode EvalUn / EvalBin accept, expected
// result bits and trap kinds written out from the Wasm specification's
// numerics chapter — never computed with this package. numx is the one
// definition of the numeric long tail for every executor, so a bug here
// is the same bug in every tier and the differential oracle cannot see
// it; this table can.

const (
	none = rt.TrapNone
	div0 = rt.TrapDivByZero
	ovf  = rt.TrapIntOverflow
	inv  = rt.TrapInvalidConversion

	nan32    uint64 = 0x7FC00000
	negNaN32 uint64 = 0xFFC00000
	inf32    uint64 = 0x7F800000
	ninf32   uint64 = 0xFF800000
	nz32     uint64 = 0x80000000 // f32 -0

	nan64    uint64 = 0x7FF8000000000000
	negNaN64 uint64 = 0xFFF8000000000000
	inf64    uint64 = 0x7FF0000000000000
	ninf64   uint64 = 0xFFF0000000000000
	nz64     uint64 = 0x8000000000000000 // f64 -0

	minI64 uint64 = 0x8000000000000000
	maxI64 uint64 = 0x7FFFFFFFFFFFFFFF
	ones64 uint64 = 0xFFFFFFFFFFFFFFFF
)

func f32b(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f64b(v float64) uint64 { return math.Float64bits(v) }
func i32b(v int32) uint64   { return uint64(uint32(v)) }
func i64b(v int64) uint64   { return uint64(v) }

// vec is one golden row. y is ignored by unary ops, want by trapping rows.
type vec struct {
	op   wasm.Opcode
	x, y uint64
	want uint64
	trap rt.TrapKind
}

var golden = []vec{
	// ---- i32 comparisons ----
	{wasm.OpI32Eqz, 0, 0, 1, none},
	{wasm.OpI32Eqz, 0x80000000, 0, 0, none},
	{wasm.OpI32Eq, 5, 5, 1, none},
	{wasm.OpI32Eq, 5, 6, 0, none},
	{wasm.OpI32Ne, 5, 5, 0, none},
	{wasm.OpI32Ne, 5, 6, 1, none},
	{wasm.OpI32LtS, i32b(-1), 0, 1, none},
	{wasm.OpI32LtS, 0, i32b(-1), 0, none},
	{wasm.OpI32LtU, i32b(-1), 0, 0, none},
	{wasm.OpI32LtU, 0, i32b(-1), 1, none},
	{wasm.OpI32GtS, 0x80000000, 0x7FFFFFFF, 0, none},
	{wasm.OpI32GtS, 0, i32b(-1), 1, none},
	{wasm.OpI32GtU, 0x80000000, 0x7FFFFFFF, 1, none},
	{wasm.OpI32GtU, 3, 3, 0, none},
	{wasm.OpI32LeS, 0x80000000, 0x80000000, 1, none},
	{wasm.OpI32LeS, 1, i32b(-1), 0, none},
	{wasm.OpI32LeU, 1, i32b(-1), 1, none},
	{wasm.OpI32LeU, 2, 1, 0, none},
	{wasm.OpI32GeS, i32b(-1), 0, 0, none},
	{wasm.OpI32GeS, 3, 3, 1, none},
	{wasm.OpI32GeU, i32b(-1), 0, 1, none},
	{wasm.OpI32GeU, 0, 1, 0, none},

	// ---- i64 comparisons ----
	{wasm.OpI64Eqz, 0, 0, 1, none},
	{wasm.OpI64Eqz, 0x100000000, 0, 0, none}, // upper half counts
	{wasm.OpI64Eq, 0x100000000, 0, 0, none},
	{wasm.OpI64Eq, ones64, ones64, 1, none},
	{wasm.OpI64Ne, 0x100000000, 0, 1, none},
	{wasm.OpI64Ne, 7, 7, 0, none},
	{wasm.OpI64LtS, minI64, 0, 1, none},
	{wasm.OpI64LtS, 0, minI64, 0, none},
	{wasm.OpI64LtU, minI64, 0, 0, none},
	{wasm.OpI64LtU, 0, minI64, 1, none},
	{wasm.OpI64GtS, 0, minI64, 1, none},
	{wasm.OpI64GtS, minI64, maxI64, 0, none},
	{wasm.OpI64GtU, minI64, maxI64, 1, none},
	{wasm.OpI64GtU, 1, 1, 0, none},
	{wasm.OpI64LeS, maxI64, minI64, 0, none},
	{wasm.OpI64LeS, ones64, ones64, 1, none},
	{wasm.OpI64LeU, minI64, maxI64, 0, none},
	{wasm.OpI64LeU, maxI64, minI64, 1, none},
	{wasm.OpI64GeS, ones64, 0, 0, none},
	{wasm.OpI64GeS, 0, ones64, 1, none},
	{wasm.OpI64GeU, ones64, 0, 1, none},
	{wasm.OpI64GeU, 0, 1, 0, none},

	// ---- f32 / f64 comparisons: NaN is unordered, -0 == +0 ----
	{wasm.OpF32Eq, nan32, nan32, 0, none},
	{wasm.OpF32Eq, f32b(0), nz32, 1, none},
	{wasm.OpF32Ne, nan32, nan32, 1, none},
	{wasm.OpF32Ne, f32b(0), nz32, 0, none},
	{wasm.OpF32Lt, nan32, f32b(1), 0, none},
	{wasm.OpF32Lt, nz32, f32b(0), 0, none},
	{wasm.OpF32Lt, f32b(1), f32b(2), 1, none},
	{wasm.OpF32Gt, f32b(1), nan32, 0, none},
	{wasm.OpF32Gt, f32b(2), f32b(1), 1, none},
	{wasm.OpF32Le, nz32, f32b(0), 1, none},
	{wasm.OpF32Le, nan32, nan32, 0, none},
	{wasm.OpF32Ge, f32b(0), nz32, 1, none},
	{wasm.OpF32Ge, f32b(1), nan32, 0, none},
	{wasm.OpF64Eq, nan64, nan64, 0, none},
	{wasm.OpF64Eq, f64b(0), nz64, 1, none},
	{wasm.OpF64Ne, nan64, nan64, 1, none},
	{wasm.OpF64Ne, f64b(0), nz64, 0, none},
	{wasm.OpF64Lt, nan64, f64b(1), 0, none},
	{wasm.OpF64Lt, nz64, f64b(0), 0, none},
	{wasm.OpF64Lt, f64b(1), f64b(2), 1, none},
	{wasm.OpF64Gt, f64b(1), nan64, 0, none},
	{wasm.OpF64Gt, f64b(2), f64b(1), 1, none},
	{wasm.OpF64Le, nz64, f64b(0), 1, none},
	{wasm.OpF64Le, nan64, nan64, 0, none},
	{wasm.OpF64Ge, f64b(0), nz64, 1, none},
	{wasm.OpF64Ge, f64b(1), nan64, 0, none},

	// ---- i32 arithmetic ----
	{wasm.OpI32Clz, 0, 0, 32, none},
	{wasm.OpI32Clz, 1, 0, 31, none},
	{wasm.OpI32Clz, 0x80000000, 0, 0, none},
	{wasm.OpI32Ctz, 0, 0, 32, none},
	{wasm.OpI32Ctz, 0x80000000, 0, 31, none},
	{wasm.OpI32Ctz, 1, 0, 0, none},
	{wasm.OpI32Popcnt, 0, 0, 0, none},
	{wasm.OpI32Popcnt, 0xFFFFFFFF, 0, 32, none},
	{wasm.OpI32Popcnt, 0x55555555, 0, 16, none},
	{wasm.OpI32Add, 0xFFFFFFFF, 1, 0, none},
	{wasm.OpI32Add, 0x7FFFFFFF, 1, 0x80000000, none},
	{wasm.OpI32Sub, 0, 1, 0xFFFFFFFF, none},
	{wasm.OpI32Sub, 0x80000000, 1, 0x7FFFFFFF, none},
	{wasm.OpI32Mul, 0x10000, 0x10000, 0, none},
	{wasm.OpI32Mul, 0xFFFFFFFF, 0xFFFFFFFF, 1, none},
	{wasm.OpI32Mul, 0x12345678, 3, 0x369D0368, none},
	{wasm.OpI32DivS, 7, i32b(-2), i32b(-3), none}, // truncates toward zero
	{wasm.OpI32DivS, i32b(-7), 2, i32b(-3), none},
	{wasm.OpI32DivS, 1, 0, 0, div0},
	{wasm.OpI32DivS, 0x80000000, 0xFFFFFFFF, 0, ovf},
	{wasm.OpI32DivS, 0x80000000, 1, 0x80000000, none},
	{wasm.OpI32DivU, 0xFFFFFFFF, 2, 0x7FFFFFFF, none},
	{wasm.OpI32DivU, 0x80000000, 0xFFFFFFFF, 0, none},
	{wasm.OpI32DivU, 1, 0, 0, div0},
	{wasm.OpI32RemS, 0x80000000, 0xFFFFFFFF, 0, none}, // no trap
	{wasm.OpI32RemS, i32b(-7), 2, i32b(-1), none},     // sign of the dividend
	{wasm.OpI32RemS, 7, i32b(-2), 1, none},
	{wasm.OpI32RemS, 1, 0, 0, div0},
	{wasm.OpI32RemU, 0xFFFFFFFF, 10, 5, none},
	{wasm.OpI32RemU, 0x80000000, 0xFFFFFFFF, 0x80000000, none},
	{wasm.OpI32RemU, 1, 0, 0, div0},
	{wasm.OpI32And, 0xF0F0F0F0, 0xFF00FF00, 0xF000F000, none},
	{wasm.OpI32Or, 0xF0F0F0F0, 0x0F0F0F0F, 0xFFFFFFFF, none},
	{wasm.OpI32Xor, 0xFFFFFFFF, 0x0F0F0F0F, 0xF0F0F0F0, none},
	{wasm.OpI32Shl, 1, 31, 0x80000000, none},
	{wasm.OpI32Shl, 1, 32, 1, none}, // count is taken mod 32
	{wasm.OpI32Shl, 1, 33, 2, none},
	{wasm.OpI32Shl, 1, 0xFFFFFFFF, 0x80000000, none},
	{wasm.OpI32ShrS, 0x80000000, 31, 0xFFFFFFFF, none},
	{wasm.OpI32ShrS, 0x80000000, 32, 0x80000000, none},
	{wasm.OpI32ShrS, 0x40000000, 30, 1, none},
	{wasm.OpI32ShrU, 0x80000000, 31, 1, none},
	{wasm.OpI32ShrU, 0x80000000, 32, 0x80000000, none},
	{wasm.OpI32ShrU, 0xFFFFFFFF, 35, 0x1FFFFFFF, none},
	{wasm.OpI32Rotl, 0x80000001, 1, 3, none},
	{wasm.OpI32Rotl, 0x12345678, 36, 0x23456781, none},
	{wasm.OpI32Rotr, 0x80000001, 1, 0xC0000000, none},
	{wasm.OpI32Rotr, 0x12345678, 36, 0x81234567, none},

	// ---- i64 arithmetic ----
	{wasm.OpI64Clz, 0, 0, 64, none},
	{wasm.OpI64Clz, 1, 0, 63, none},
	{wasm.OpI64Clz, minI64, 0, 0, none},
	{wasm.OpI64Ctz, 0, 0, 64, none},
	{wasm.OpI64Ctz, minI64, 0, 63, none},
	{wasm.OpI64Ctz, 0x100000000, 0, 32, none},
	{wasm.OpI64Popcnt, 0, 0, 0, none},
	{wasm.OpI64Popcnt, ones64, 0, 64, none},
	{wasm.OpI64Popcnt, 0x8000000000000001, 0, 2, none},
	{wasm.OpI64Add, ones64, 1, 0, none},
	{wasm.OpI64Add, maxI64, 1, minI64, none},
	{wasm.OpI64Sub, 0, 1, ones64, none},
	{wasm.OpI64Sub, minI64, 1, maxI64, none},
	{wasm.OpI64Mul, 0x100000000, 0x100000000, 0, none},
	{wasm.OpI64Mul, 0x100000001, 0x100000001, 0x200000001, none},
	{wasm.OpI64DivS, i64b(-7), 2, i64b(-3), none},
	{wasm.OpI64DivS, 1, 0, 0, div0},
	{wasm.OpI64DivS, minI64, ones64, 0, ovf},
	{wasm.OpI64DivS, minI64, 1, minI64, none},
	{wasm.OpI64DivU, ones64, 2, maxI64, none},
	{wasm.OpI64DivU, minI64, ones64, 0, none},
	{wasm.OpI64DivU, 1, 0, 0, div0},
	{wasm.OpI64RemS, minI64, ones64, 0, none},
	{wasm.OpI64RemS, i64b(-7), 2, i64b(-1), none},
	{wasm.OpI64RemS, 1, 0, 0, div0},
	{wasm.OpI64RemU, ones64, 10, 5, none},
	{wasm.OpI64RemU, 1, 0, 0, div0},
	{wasm.OpI64And, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00, 0xF000F000F000F000, none},
	{wasm.OpI64Or, 0xF0F0F0F000000000, 0x0F0F0F0F00000001, 0xFFFFFFFF00000001, none},
	{wasm.OpI64Xor, ones64, 0x0F0F0F0F0F0F0F0F, 0xF0F0F0F0F0F0F0F0, none},
	{wasm.OpI64Shl, 1, 63, minI64, none},
	{wasm.OpI64Shl, 1, 64, 1, none}, // count is taken mod 64
	{wasm.OpI64Shl, 1, 65, 2, none},
	{wasm.OpI64Shl, 1, 100, 0x1000000000, none}, // 100 mod 64 = 36, not 100 mod 32
	{wasm.OpI64ShrS, minI64, 63, ones64, none},
	{wasm.OpI64ShrS, minI64, 64, minI64, none},
	{wasm.OpI64ShrU, minI64, 63, 1, none},
	{wasm.OpI64ShrU, minI64, 64, minI64, none},
	{wasm.OpI64ShrU, minI64, 0xFFFFFFFFFFFFFF7F, 1, none},
	{wasm.OpI64Rotl, 0x8000000000000001, 1, 3, none},
	{wasm.OpI64Rotl, 0x8000000000000001, 65, 3, none},
	{wasm.OpI64Rotl, 0x0123456789ABCDEF, 100, 0x9ABCDEF012345678, none},
	{wasm.OpI64Rotr, 0x8000000000000001, 1, 0xC000000000000000, none},
	{wasm.OpI64Rotr, 0x0123456789ABCDEF, 68, 0xF0123456789ABCDE, none},
	{wasm.OpI64Rotr, 0x0123456789ABCDEF, 100, 0x789ABCDEF0123456, none},

	// ---- f32 arithmetic ----
	{wasm.OpF32Abs, f32b(-1.5), 0, f32b(1.5), none},
	{wasm.OpF32Abs, nz32, 0, 0, none},
	{wasm.OpF32Abs, ninf32, 0, inf32, none},
	{wasm.OpF32Abs, f32b(2), 0, f32b(2), none},
	{wasm.OpF32Neg, 0, 0, nz32, none},
	{wasm.OpF32Neg, f32b(1), 0, f32b(-1), none},
	{wasm.OpF32Ceil, f32b(1.2), 0, f32b(2), none},
	{wasm.OpF32Ceil, f32b(-0.5), 0, nz32, none},
	{wasm.OpF32Ceil, ninf32, 0, ninf32, none},
	{wasm.OpF32Ceil, nan32, 0, nan32, none},
	{wasm.OpF32Floor, f32b(0.5), 0, 0, none},
	{wasm.OpF32Floor, f32b(-0.5), 0, f32b(-1), none},
	{wasm.OpF32Floor, nz32, 0, nz32, none},
	{wasm.OpF32Trunc, f32b(-1.7), 0, f32b(-1), none},
	{wasm.OpF32Trunc, f32b(-0.7), 0, nz32, none},
	{wasm.OpF32Trunc, f32b(2.9), 0, f32b(2), none},
	{wasm.OpF32Nearest, f32b(0.5), 0, 0, none}, // ties to even
	{wasm.OpF32Nearest, f32b(1.5), 0, f32b(2), none},
	{wasm.OpF32Nearest, f32b(2.5), 0, f32b(2), none},
	{wasm.OpF32Nearest, f32b(3.5), 0, f32b(4), none},
	{wasm.OpF32Nearest, f32b(-2.5), 0, f32b(-2), none},
	{wasm.OpF32Nearest, f32b(-0.5), 0, nz32, none},
	{wasm.OpF32Nearest, 0x3EFFFFFF, 0, 0, none},          // largest f32 below 0.5
	{wasm.OpF32Nearest, 0x4B000001, 0, 0x4B000001, none}, // 2^23+1 is already integral
	{wasm.OpF32Sqrt, f32b(4), 0, f32b(2), none},
	{wasm.OpF32Sqrt, f32b(2), 0, 0x3FB504F3, none},
	{wasm.OpF32Sqrt, f32b(-1), 0, nan32, none},
	{wasm.OpF32Sqrt, nz32, 0, nz32, none},
	{wasm.OpF32Sqrt, inf32, 0, inf32, none},
	{wasm.OpF32Add, f32b(1.5), f32b(2.25), f32b(3.75), none},
	{wasm.OpF32Add, 0x4B800000, f32b(1), 0x4B800000, none}, // 2^24+1 rounds to even in f32
	{wasm.OpF32Add, inf32, ninf32, nan32, none},
	{wasm.OpF32Add, nz32, nz32, nz32, none},
	{wasm.OpF32Sub, inf32, inf32, nan32, none},
	{wasm.OpF32Sub, nz32, 0, nz32, none},
	{wasm.OpF32Sub, f32b(1), f32b(3), f32b(-2), none},
	{wasm.OpF32Mul, f32b(-2), f32b(0.5), f32b(-1), none},
	{wasm.OpF32Mul, 0, inf32, nan32, none},
	{wasm.OpF32Mul, nz32, f32b(3), nz32, none},
	{wasm.OpF32Div, f32b(1), f32b(3), 0x3EAAAAAB, none},
	{wasm.OpF32Div, f32b(1), 0, inf32, none},
	{wasm.OpF32Div, f32b(1), nz32, ninf32, none},
	{wasm.OpF32Div, 0, 0, nan32, none},
	{wasm.OpF32Min, nan32, f32b(1), nan32, none},
	{wasm.OpF32Min, f32b(1), nan32, nan32, none},
	{wasm.OpF32Min, nz32, 0, nz32, none},
	{wasm.OpF32Min, 0, nz32, nz32, none},
	{wasm.OpF32Min, f32b(1), f32b(2), f32b(1), none},
	{wasm.OpF32Min, ninf32, f32b(1), ninf32, none},
	{wasm.OpF32Max, nz32, 0, 0, none},
	{wasm.OpF32Max, 0, nz32, 0, none},
	{wasm.OpF32Max, nan32, f32b(1), nan32, none},
	{wasm.OpF32Max, f32b(1), nan32, nan32, none},
	{wasm.OpF32Max, f32b(1), f32b(2), f32b(2), none},
	{wasm.OpF32Copysign, f32b(1.5), nz32, f32b(-1.5), none},
	{wasm.OpF32Copysign, f32b(-1.5), 0, f32b(1.5), none},
	{wasm.OpF32Copysign, f32b(1), negNaN32, f32b(-1), none}, // NaN's sign bit counts
	{wasm.OpF32Copysign, ninf32, f32b(1), inf32, none},

	// ---- f64 arithmetic ----
	{wasm.OpF64Abs, f64b(-1.5), 0, f64b(1.5), none},
	{wasm.OpF64Abs, nz64, 0, 0, none},
	{wasm.OpF64Abs, ninf64, 0, inf64, none},
	{wasm.OpF64Abs, f64b(2), 0, f64b(2), none},
	{wasm.OpF64Neg, 0, 0, nz64, none},
	{wasm.OpF64Neg, f64b(1), 0, f64b(-1), none},
	{wasm.OpF64Ceil, f64b(1.2), 0, f64b(2), none},
	{wasm.OpF64Ceil, f64b(-0.5), 0, nz64, none},
	{wasm.OpF64Ceil, nan64, 0, nan64, none},
	{wasm.OpF64Floor, f64b(0.5), 0, 0, none},
	{wasm.OpF64Floor, f64b(-0.5), 0, f64b(-1), none},
	{wasm.OpF64Floor, ninf64, 0, ninf64, none},
	{wasm.OpF64Trunc, f64b(-1.7), 0, f64b(-1), none},
	{wasm.OpF64Trunc, f64b(-0.7), 0, nz64, none},
	{wasm.OpF64Nearest, f64b(0.5), 0, 0, none}, // ties to even
	{wasm.OpF64Nearest, f64b(1.5), 0, f64b(2), none},
	{wasm.OpF64Nearest, f64b(2.5), 0, f64b(2), none},
	{wasm.OpF64Nearest, f64b(-2.5), 0, f64b(-2), none},
	{wasm.OpF64Nearest, f64b(-0.5), 0, nz64, none},
	{wasm.OpF64Nearest, 0x3FDFFFFFFFFFFFFF, 0, 0, none},                          // largest f64 below 0.5
	{wasm.OpF64Nearest, f64b(4503599627370497), 0, f64b(4503599627370497), none}, // 2^52+1
	{wasm.OpF64Sqrt, f64b(4), 0, f64b(2), none},
	{wasm.OpF64Sqrt, f64b(2), 0, 0x3FF6A09E667F3BCD, none},
	{wasm.OpF64Sqrt, f64b(-1), 0, nan64, none},
	{wasm.OpF64Sqrt, nz64, 0, nz64, none},
	{wasm.OpF64Add, f64b(1.5), f64b(2.25), f64b(3.75), none},
	{wasm.OpF64Add, inf64, ninf64, nan64, none},
	{wasm.OpF64Add, nz64, nz64, nz64, none},
	{wasm.OpF64Sub, inf64, inf64, nan64, none},
	{wasm.OpF64Sub, nz64, 0, nz64, none},
	{wasm.OpF64Mul, f64b(-2), f64b(0.5), f64b(-1), none},
	{wasm.OpF64Mul, 0, ninf64, nan64, none},
	{wasm.OpF64Div, f64b(1), f64b(3), 0x3FD5555555555555, none},
	{wasm.OpF64Div, f64b(-1), 0, ninf64, none},
	{wasm.OpF64Div, 0, 0, nan64, none},
	{wasm.OpF64Min, nan64, f64b(1), nan64, none},
	{wasm.OpF64Min, f64b(1), nan64, nan64, none},
	{wasm.OpF64Min, nz64, 0, nz64, none},
	{wasm.OpF64Min, 0, nz64, nz64, none},
	{wasm.OpF64Min, f64b(1), f64b(2), f64b(1), none},
	{wasm.OpF64Max, nz64, 0, 0, none},
	{wasm.OpF64Max, 0, nz64, 0, none},
	{wasm.OpF64Max, nan64, f64b(1), nan64, none},
	{wasm.OpF64Max, f64b(1), f64b(2), f64b(2), none},
	{wasm.OpF64Copysign, f64b(1.5), nz64, f64b(-1.5), none},
	{wasm.OpF64Copysign, ninf64, f64b(1), inf64, none},
	{wasm.OpF64Copysign, f64b(2), negNaN64, f64b(-2), none},

	// ---- wrap / extend ----
	{wasm.OpI32WrapI64, 0x123456789, 0, 0x23456789, none},
	{wasm.OpI32WrapI64, ones64, 0, 0xFFFFFFFF, none},
	{wasm.OpI64ExtendI32S, 0x80000000, 0, 0xFFFFFFFF80000000, none},
	{wasm.OpI64ExtendI32S, 0x7FFFFFFF, 0, 0x7FFFFFFF, none},
	{wasm.OpI64ExtendI32U, 0x80000000, 0, 0x80000000, none},
	{wasm.OpI64ExtendI32U, 0xFFFFFFFF, 0, 0xFFFFFFFF, none},
	{wasm.OpI32Extend8S, 0x80, 0, 0xFFFFFF80, none},
	{wasm.OpI32Extend8S, 0x17F, 0, 0x7F, none},
	{wasm.OpI32Extend16S, 0x8000, 0, 0xFFFF8000, none},
	{wasm.OpI32Extend16S, 0x17FFF, 0, 0x7FFF, none},
	{wasm.OpI64Extend8S, 0x80, 0, 0xFFFFFFFFFFFFFF80, none},
	{wasm.OpI64Extend8S, 0xFF7F, 0, 0x7F, none},
	{wasm.OpI64Extend16S, 0x8000, 0, 0xFFFFFFFFFFFF8000, none},
	{wasm.OpI64Extend32S, 0x80000000, 0, 0xFFFFFFFF80000000, none},
	{wasm.OpI64Extend32S, 0x17FFFFFFF, 0, 0x7FFFFFFF, none},

	// ---- trapping float→int truncation ----
	{wasm.OpI32TruncF32S, f32b(-1.9), 0, i32b(-1), none},
	{wasm.OpI32TruncF32S, 0x4EFFFFFF, 0, 0x7FFFFF80, none}, // largest f32 below 2^31
	{wasm.OpI32TruncF32S, f32b(2147483648), 0, 0, ovf},
	{wasm.OpI32TruncF32S, 0xCF000000, 0, 0x80000000, none}, // -2^31
	{wasm.OpI32TruncF32S, 0xCF000001, 0, 0, ovf},           // next f32 below -2^31
	{wasm.OpI32TruncF32S, inf32, 0, 0, ovf},
	{wasm.OpI32TruncF32S, nan32, 0, 0, inv},
	{wasm.OpI32TruncF32U, f32b(-0.9), 0, 0, none},
	{wasm.OpI32TruncF32U, f32b(-1), 0, 0, ovf},
	{wasm.OpI32TruncF32U, 0x4F7FFFFF, 0, 0xFFFFFF00, none}, // largest f32 below 2^32
	{wasm.OpI32TruncF32U, f32b(4294967296), 0, 0, ovf},
	{wasm.OpI32TruncF32U, negNaN32, 0, 0, inv},
	{wasm.OpI32TruncF64S, f64b(2147483647.9), 0, 0x7FFFFFFF, none},
	{wasm.OpI32TruncF64S, f64b(2147483648), 0, 0, ovf},
	{wasm.OpI32TruncF64S, f64b(-2147483648.9), 0, 0x80000000, none},
	{wasm.OpI32TruncF64S, f64b(-2147483649), 0, 0, ovf},
	{wasm.OpI32TruncF64S, f64b(-0.5), 0, 0, none},
	{wasm.OpI32TruncF64S, nan64, 0, 0, inv},
	{wasm.OpI32TruncF64U, f64b(4294967295.9), 0, 0xFFFFFFFF, none},
	{wasm.OpI32TruncF64U, f64b(4294967296), 0, 0, ovf},
	{wasm.OpI32TruncF64U, f64b(-0.9), 0, 0, none},
	{wasm.OpI32TruncF64U, f64b(-1), 0, 0, ovf},
	{wasm.OpI32TruncF64U, nan64, 0, 0, inv},
	{wasm.OpI64TruncF32S, f32b(-1.5), 0, ones64, none},
	{wasm.OpI64TruncF32S, 0x5EFFFFFF, 0, 0x7FFFFF8000000000, none}, // largest f32 below 2^63
	{wasm.OpI64TruncF32S, 0x5F000000, 0, 0, ovf},                   // 2^63
	{wasm.OpI64TruncF32S, 0xDF000000, 0, minI64, none},             // -2^63
	{wasm.OpI64TruncF32S, 0xDF000001, 0, 0, ovf},
	{wasm.OpI64TruncF32S, nan32, 0, 0, inv},
	{wasm.OpI64TruncF32U, 0x5F7FFFFF, 0, 0xFFFFFF0000000000, none}, // largest f32 below 2^64
	{wasm.OpI64TruncF32U, 0x5F800000, 0, 0, ovf},                   // 2^64
	{wasm.OpI64TruncF32U, f32b(-0.9), 0, 0, none},
	{wasm.OpI64TruncF32U, f32b(-1), 0, 0, ovf},
	{wasm.OpI64TruncF32U, nan32, 0, 0, inv},
	{wasm.OpI64TruncF64S, 0x43DFFFFFFFFFFFFF, 0, 0x7FFFFFFFFFFFFC00, none}, // largest f64 below 2^63
	{wasm.OpI64TruncF64S, 0x43E0000000000000, 0, 0, ovf},                   // 2^63
	{wasm.OpI64TruncF64S, 0xC3E0000000000000, 0, minI64, none},             // -2^63
	{wasm.OpI64TruncF64S, 0xC3E0000000000001, 0, 0, ovf},
	{wasm.OpI64TruncF64S, ninf64, 0, 0, ovf},
	{wasm.OpI64TruncF64S, nan64, 0, 0, inv},
	{wasm.OpI64TruncF64U, 0x43EFFFFFFFFFFFFF, 0, 0xFFFFFFFFFFFFF800, none}, // largest f64 below 2^64
	{wasm.OpI64TruncF64U, 0x43E0000000000000, 0, minI64, none},             // 2^63 fits unsigned
	{wasm.OpI64TruncF64U, 0x43F0000000000000, 0, 0, ovf},                   // 2^64
	{wasm.OpI64TruncF64U, f64b(-0.9), 0, 0, none},
	{wasm.OpI64TruncF64U, f64b(-1), 0, 0, ovf},
	{wasm.OpI64TruncF64U, nan64, 0, 0, inv},

	// ---- saturating float→int truncation: clamp, NaN → 0 ----
	{wasm.OpI32TruncSatF32S, nan32, 0, 0, none},
	{wasm.OpI32TruncSatF32S, inf32, 0, 0x7FFFFFFF, none},
	{wasm.OpI32TruncSatF32S, ninf32, 0, 0x80000000, none},
	{wasm.OpI32TruncSatF32S, f32b(2147483648), 0, 0x7FFFFFFF, none},
	{wasm.OpI32TruncSatF32S, 0x4EFFFFFF, 0, 0x7FFFFF80, none},
	{wasm.OpI32TruncSatF32S, f32b(-1.5), 0, i32b(-1), none},
	{wasm.OpI32TruncSatF32U, nan32, 0, 0, none},
	{wasm.OpI32TruncSatF32U, ninf32, 0, 0, none},
	{wasm.OpI32TruncSatF32U, f32b(-1), 0, 0, none},
	{wasm.OpI32TruncSatF32U, inf32, 0, 0xFFFFFFFF, none},
	{wasm.OpI32TruncSatF32U, f32b(4294967296), 0, 0xFFFFFFFF, none},
	{wasm.OpI32TruncSatF32U, 0x4F7FFFFF, 0, 0xFFFFFF00, none},
	{wasm.OpI32TruncSatF64S, nan64, 0, 0, none},
	{wasm.OpI32TruncSatF64S, f64b(2147483647.9), 0, 0x7FFFFFFF, none},
	{wasm.OpI32TruncSatF64S, f64b(2147483648), 0, 0x7FFFFFFF, none},
	{wasm.OpI32TruncSatF64S, f64b(-2147483649), 0, 0x80000000, none},
	{wasm.OpI32TruncSatF64S, ninf64, 0, 0x80000000, none},
	{wasm.OpI32TruncSatF64S, f64b(-3.99), 0, i32b(-3), none},
	{wasm.OpI32TruncSatF64U, nan64, 0, 0, none},
	{wasm.OpI32TruncSatF64U, f64b(4294967295.9), 0, 0xFFFFFFFF, none},
	{wasm.OpI32TruncSatF64U, f64b(1e10), 0, 0xFFFFFFFF, none},
	{wasm.OpI32TruncSatF64U, f64b(-1), 0, 0, none},
	{wasm.OpI64TruncSatF32S, nan32, 0, 0, none},
	{wasm.OpI64TruncSatF32S, inf32, 0, maxI64, none},
	{wasm.OpI64TruncSatF32S, ninf32, 0, minI64, none},
	{wasm.OpI64TruncSatF32S, 0x5F000000, 0, maxI64, none},
	{wasm.OpI64TruncSatF32S, 0x5EFFFFFF, 0, 0x7FFFFF8000000000, none},
	{wasm.OpI64TruncSatF32U, nan32, 0, 0, none},
	{wasm.OpI64TruncSatF32U, f32b(-1), 0, 0, none},
	{wasm.OpI64TruncSatF32U, inf32, 0, ones64, none},
	{wasm.OpI64TruncSatF32U, 0x5F800000, 0, ones64, none},
	{wasm.OpI64TruncSatF32U, 0x5F7FFFFF, 0, 0xFFFFFF0000000000, none},
	{wasm.OpI64TruncSatF64S, nan64, 0, 0, none},
	{wasm.OpI64TruncSatF64S, 0x43E0000000000000, 0, maxI64, none},
	{wasm.OpI64TruncSatF64S, 0xC3E0000000000001, 0, minI64, none},
	{wasm.OpI64TruncSatF64S, 0x43DFFFFFFFFFFFFF, 0, 0x7FFFFFFFFFFFFC00, none},
	{wasm.OpI64TruncSatF64S, ninf64, 0, minI64, none},
	{wasm.OpI64TruncSatF64U, nan64, 0, 0, none},
	{wasm.OpI64TruncSatF64U, 0x43F0000000000000, 0, ones64, none},
	{wasm.OpI64TruncSatF64U, 0x43EFFFFFFFFFFFFF, 0, 0xFFFFFFFFFFFFF800, none},
	{wasm.OpI64TruncSatF64U, 0x43E0000000000000, 0, minI64, none},
	{wasm.OpI64TruncSatF64U, f64b(-0.9), 0, 0, none},

	// ---- int→float conversion: round to nearest, ties to even ----
	{wasm.OpF32ConvertI32S, i32b(-1), 0, f32b(-1), none},
	{wasm.OpF32ConvertI32S, 0x80000000, 0, 0xCF000000, none}, // -2^31
	{wasm.OpF32ConvertI32S, 16777217, 0, 0x4B800000, none},   // 2^24+1 ties to even
	{wasm.OpF32ConvertI32U, 0xFFFFFFFF, 0, 0x4F800000, none}, // rounds up to 2^32
	{wasm.OpF32ConvertI32U, 0x80000000, 0, 0x4F000000, none}, // 2^31
	{wasm.OpF32ConvertI64S, ones64, 0, f32b(-1), none},
	{wasm.OpF32ConvertI64S, minI64, 0, 0xDF000000, none},             // -2^63
	{wasm.OpF32ConvertI64S, 0x4000004000000001, 0, 0x5E800001, none}, // one rounding, not two
	{wasm.OpF32ConvertI64U, minI64, 0, 0x5F000000, none},             // 2^63
	{wasm.OpF32ConvertI64U, ones64, 0, 0x5F800000, none},             // rounds up to 2^64
	{wasm.OpF32ConvertI64U, 0x8000008000000001, 0, 0x5F000001, none}, // one rounding, not two
	{wasm.OpF64ConvertI32S, 0x80000000, 0, f64b(-2147483648), none},
	{wasm.OpF64ConvertI32S, 7, 0, f64b(7), none},
	{wasm.OpF64ConvertI32U, 0x80000000, 0, f64b(2147483648), none},
	{wasm.OpF64ConvertI32U, 0xFFFFFFFF, 0, f64b(4294967295), none},
	{wasm.OpF64ConvertI64S, minI64, 0, 0xC3E0000000000000, none}, // -2^63
	{wasm.OpF64ConvertI64S, ones64, 0, f64b(-1), none},
	{wasm.OpF64ConvertI64U, minI64, 0, 0x43E0000000000000, none},             // 2^63
	{wasm.OpF64ConvertI64U, ones64, 0, 0x43F0000000000000, none},             // rounds up to 2^64
	{wasm.OpF64ConvertI64U, 0x8000000000000401, 0, 0x43E0000000000001, none}, // above the tie: up

	// ---- float↔float ----
	{wasm.OpF32DemoteF64, f64b(1.5), 0, f32b(1.5), none},
	{wasm.OpF32DemoteF64, 0x3FF0000010000000, 0, 0x3F800000, none}, // 1+2^-24 ties to even
	{wasm.OpF32DemoteF64, f64b(1e300), 0, inf32, none},
	{wasm.OpF32DemoteF64, nz64, 0, nz32, none},
	{wasm.OpF32DemoteF64, nan64, 0, nan32, none},
	{wasm.OpF64PromoteF32, f32b(1.5), 0, f64b(1.5), none},
	{wasm.OpF64PromoteF32, nz32, 0, nz64, none},
	{wasm.OpF64PromoteF32, ninf32, 0, ninf64, none},
	{wasm.OpF64PromoteF32, nan32, 0, nan64, none},

	// ---- reinterpretation is the identity on bits ----
	{wasm.OpI32ReinterpretF32, nz32, 0, 0x80000000, none},
	{wasm.OpI64ReinterpretF64, nz64, 0, 0x8000000000000000, none},
	{wasm.OpF32ReinterpretI32, 0x3F800000, 0, f32b(1), none},
	{wasm.OpF64ReinterpretI64, 0x3FF0000000000000, 0, f64b(1), none},
}

// isNaN reports whether bits is a NaN of type t.
func isNaN(t wasm.ValueType, bits uint64) bool {
	if t == wasm.F32 {
		return math.IsNaN(float64(math.Float32frombits(uint32(bits))))
	}
	return t == wasm.F64 && math.IsNaN(math.Float64frombits(bits))
}

func TestGoldenVectors(t *testing.T) {
	covered := map[wasm.Opcode]bool{}
	for _, v := range golden {
		covered[v.op] = true
		params, results, _ := v.op.Sig()
		var got uint64
		var trap rt.TrapKind
		var ok bool
		if len(params) == 1 {
			got, trap, ok = EvalUn(v.op, v.x)
		} else {
			got, trap, ok = EvalBin(v.op, v.x, v.y)
		}
		if !ok {
			t.Errorf("%v: not accepted", v.op)
			continue
		}
		if trap != v.trap {
			t.Errorf("%v(%#x, %#x): trap %v, want %v", v.op, v.x, v.y, trap, v.trap)
			continue
		}
		if trap != none {
			continue
		}
		ty := results[0]
		if (ty == wasm.I32 || ty == wasm.F32) && got>>32 != 0 {
			t.Errorf("%v(%#x, %#x) = %#x: 32-bit result has upper bits set", v.op, v.x, v.y, got)
		}
		// NaN payloads and signs are nondeterministic in the spec; the
		// oracle compares NaN-ness only, and so does this table.
		if isNaN(ty, v.want) {
			if !isNaN(ty, got) {
				t.Errorf("%v(%#x, %#x) = %#x, want a NaN", v.op, v.x, v.y, got)
			}
			continue
		}
		if got != v.want {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", v.op, v.x, v.y, got, v.want)
		}
	}
	for op := wasm.Opcode(0); op <= wasm.OpMemoryFill; op++ {
		_, _, un := EvalUn(op, 0)
		_, _, bin := EvalBin(op, 0, 0)
		if (un || bin) && !covered[op] {
			t.Errorf("%v is accepted by numx but has no golden vector", op)
		}
	}
	t.Logf("%d vectors over %d opcodes", len(golden), len(covered))
}
