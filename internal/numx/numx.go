// Package numx centralizes the scalar semantics of Wasm numeric
// instructions over raw 64-bit slot values. It has four clients with
// identical correctness requirements: the in-place interpreter (every
// numeric op outside its inline hot set), the rewriting interpreter's
// long tail, the MachCode executor (its generic fallback and trapping
// truncations, for code from SPC, copy-and-patch and the optimizing
// tier alike), and the single-pass compiler's constant folder, which the
// optimizing tier reaches through SPC (folding must agree bit-for-bit
// with execution, or constant tracking would change program behaviour).
// golden_test.go pins every opcode to vectors written from the spec:
// a bug here is a bug in every tier, which the differential oracle
// cannot see.
package numx

import (
	"math"
	"math/bits"

	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// B2u converts a bool to 0/1.
func B2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Float min/max with Wasm NaN and signed-zero semantics.

// FMin32 is f32.min.
func FMin32(a, b float32) float32 {
	if a != a || b != b {
		return float32(math.NaN())
	}
	return float32(math.Min(float64(a), float64(b)))
}

// FMax32 is f32.max.
func FMax32(a, b float32) float32 {
	if a != a || b != b {
		return float32(math.NaN())
	}
	return float32(math.Max(float64(a), float64(b)))
}

// FMin64 is f64.min.
func FMin64(a, b float64) float64 {
	if a != a || b != b {
		return math.NaN()
	}
	return math.Min(a, b)
}

// FMax64 is f64.max.
func FMax64(a, b float64) float64 {
	if a != a || b != b {
		return math.NaN()
	}
	return math.Max(a, b)
}

// Trapping float→int truncations.

// TruncToI32S implements i32.trunc_f*_s range checking.
func TruncToI32S(x float64) (int32, rt.TrapKind) {
	if x != x {
		return 0, rt.TrapInvalidConversion
	}
	x = math.Trunc(x)
	if x < -2147483648 || x > 2147483647 {
		return 0, rt.TrapIntOverflow
	}
	return int32(x), rt.TrapNone
}

// TruncToI32U implements i32.trunc_f*_u range checking.
func TruncToI32U(x float64) (uint32, rt.TrapKind) {
	if x != x {
		return 0, rt.TrapInvalidConversion
	}
	x = math.Trunc(x)
	if x < 0 || x > 4294967295 {
		return 0, rt.TrapIntOverflow
	}
	return uint32(x), rt.TrapNone
}

// TruncToI64S implements i64.trunc_f*_s range checking.
func TruncToI64S(x float64) (int64, rt.TrapKind) {
	if x != x {
		return 0, rt.TrapInvalidConversion
	}
	x = math.Trunc(x)
	if x < -9223372036854775808 || x >= 9223372036854775808 {
		return 0, rt.TrapIntOverflow
	}
	return int64(x), rt.TrapNone
}

// TruncToI64U implements i64.trunc_f*_u range checking.
func TruncToI64U(x float64) (uint64, rt.TrapKind) {
	if x != x {
		return 0, rt.TrapInvalidConversion
	}
	x = math.Trunc(x)
	if x < 0 || x >= 18446744073709551616 {
		return 0, rt.TrapIntOverflow
	}
	return uint64(x), rt.TrapNone
}

// Saturating float→int truncations.

// SatToI32S implements i32.trunc_sat_f*_s.
func SatToI32S(x float64) int32 {
	if x != x {
		return 0
	}
	x = math.Trunc(x)
	if x < -2147483648 {
		return math.MinInt32
	}
	if x > 2147483647 {
		return math.MaxInt32
	}
	return int32(x)
}

// SatToI32U implements i32.trunc_sat_f*_u.
func SatToI32U(x float64) uint32 {
	if x != x || x < 0 {
		return 0
	}
	x = math.Trunc(x)
	if x > 4294967295 {
		return math.MaxUint32
	}
	return uint32(x)
}

// SatToI64S implements i64.trunc_sat_f*_s.
func SatToI64S(x float64) int64 {
	if x != x {
		return 0
	}
	x = math.Trunc(x)
	if x < -9223372036854775808 {
		return math.MinInt64
	}
	if x >= 9223372036854775808 {
		return math.MaxInt64
	}
	return int64(x)
}

// SatToI64U implements i64.trunc_sat_f*_u.
func SatToI64U(x float64) uint64 {
	if x != x || x < 0 {
		return 0
	}
	x = math.Trunc(x)
	if x >= 18446744073709551616 {
		return math.MaxUint64
	}
	return uint64(x)
}

func f32(bits64 uint64) float32  { return math.Float32frombits(uint32(bits64)) }
func f64v(bits64 uint64) float64 { return math.Float64frombits(bits64) }
func rf32(v float32) uint64      { return uint64(math.Float32bits(v)) }
func rf64(v float64) uint64      { return math.Float64bits(v) }

// EvalUn evaluates a unary numeric Wasm instruction on raw bits.
// ok=false means the opcode is not a unary numeric op.
func EvalUn(op wasm.Opcode, x uint64) (r uint64, trap rt.TrapKind, ok bool) {
	switch op {
	case wasm.OpI32Eqz:
		return B2u(uint32(x) == 0), rt.TrapNone, true
	case wasm.OpI64Eqz:
		return B2u(x == 0), rt.TrapNone, true
	case wasm.OpI32Clz:
		return uint64(uint32(bits.LeadingZeros32(uint32(x)))), rt.TrapNone, true
	case wasm.OpI32Ctz:
		return uint64(uint32(bits.TrailingZeros32(uint32(x)))), rt.TrapNone, true
	case wasm.OpI32Popcnt:
		return uint64(uint32(bits.OnesCount32(uint32(x)))), rt.TrapNone, true
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(x)), rt.TrapNone, true
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(x)), rt.TrapNone, true
	case wasm.OpI64Popcnt:
		return uint64(bits.OnesCount64(x)), rt.TrapNone, true
	case wasm.OpF32Abs:
		return x &^ (1 << 31), rt.TrapNone, true
	case wasm.OpF32Neg:
		return x ^ (1 << 31), rt.TrapNone, true
	case wasm.OpF32Ceil:
		return rf32(float32(math.Ceil(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpF32Floor:
		return rf32(float32(math.Floor(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpF32Trunc:
		return rf32(float32(math.Trunc(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpF32Nearest:
		return rf32(float32(math.RoundToEven(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpF32Sqrt:
		return rf32(float32(math.Sqrt(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpF64Abs:
		return x &^ (1 << 63), rt.TrapNone, true
	case wasm.OpF64Neg:
		return x ^ (1 << 63), rt.TrapNone, true
	case wasm.OpF64Ceil:
		return rf64(math.Ceil(f64v(x))), rt.TrapNone, true
	case wasm.OpF64Floor:
		return rf64(math.Floor(f64v(x))), rt.TrapNone, true
	case wasm.OpF64Trunc:
		return rf64(math.Trunc(f64v(x))), rt.TrapNone, true
	case wasm.OpF64Nearest:
		return rf64(math.RoundToEven(f64v(x))), rt.TrapNone, true
	case wasm.OpF64Sqrt:
		return rf64(math.Sqrt(f64v(x))), rt.TrapNone, true
	case wasm.OpI32WrapI64:
		return uint64(uint32(x)), rt.TrapNone, true
	case wasm.OpI32TruncF32S:
		v, k := TruncToI32S(float64(f32(x)))
		return uint64(uint32(v)), k, true
	case wasm.OpI32TruncF32U:
		v, k := TruncToI32U(float64(f32(x)))
		return uint64(v), k, true
	case wasm.OpI32TruncF64S:
		v, k := TruncToI32S(f64v(x))
		return uint64(uint32(v)), k, true
	case wasm.OpI32TruncF64U:
		v, k := TruncToI32U(f64v(x))
		return uint64(v), k, true
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(x))), rt.TrapNone, true
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(x)), rt.TrapNone, true
	case wasm.OpI64TruncF32S:
		v, k := TruncToI64S(float64(f32(x)))
		return uint64(v), k, true
	case wasm.OpI64TruncF32U:
		v, k := TruncToI64U(float64(f32(x)))
		return v, k, true
	case wasm.OpI64TruncF64S:
		v, k := TruncToI64S(f64v(x))
		return uint64(v), k, true
	case wasm.OpI64TruncF64U:
		v, k := TruncToI64U(f64v(x))
		return v, k, true
	case wasm.OpF32ConvertI32S:
		return rf32(float32(int32(x))), rt.TrapNone, true
	case wasm.OpF32ConvertI32U:
		return rf32(float32(uint32(x))), rt.TrapNone, true
	case wasm.OpF32ConvertI64S:
		return rf32(float32(int64(x))), rt.TrapNone, true
	case wasm.OpF32ConvertI64U:
		return rf32(float32(x)), rt.TrapNone, true
	case wasm.OpF32DemoteF64:
		return rf32(float32(f64v(x))), rt.TrapNone, true
	case wasm.OpF64ConvertI32S:
		return rf64(float64(int32(x))), rt.TrapNone, true
	case wasm.OpF64ConvertI32U:
		return rf64(float64(uint32(x))), rt.TrapNone, true
	case wasm.OpF64ConvertI64S:
		return rf64(float64(int64(x))), rt.TrapNone, true
	case wasm.OpF64ConvertI64U:
		return rf64(float64(x)), rt.TrapNone, true
	case wasm.OpF64PromoteF32:
		return rf64(float64(f32(x))), rt.TrapNone, true
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return x, rt.TrapNone, true
	case wasm.OpI32Extend8S:
		return uint64(uint32(int32(int8(x)))), rt.TrapNone, true
	case wasm.OpI32Extend16S:
		return uint64(uint32(int32(int16(x)))), rt.TrapNone, true
	case wasm.OpI64Extend8S:
		return uint64(int64(int8(x))), rt.TrapNone, true
	case wasm.OpI64Extend16S:
		return uint64(int64(int16(x))), rt.TrapNone, true
	case wasm.OpI64Extend32S:
		return uint64(int64(int32(x))), rt.TrapNone, true
	case wasm.OpI32TruncSatF32S:
		return uint64(uint32(SatToI32S(float64(f32(x))))), rt.TrapNone, true
	case wasm.OpI32TruncSatF32U:
		return uint64(SatToI32U(float64(f32(x)))), rt.TrapNone, true
	case wasm.OpI32TruncSatF64S:
		return uint64(uint32(SatToI32S(f64v(x)))), rt.TrapNone, true
	case wasm.OpI32TruncSatF64U:
		return uint64(SatToI32U(f64v(x))), rt.TrapNone, true
	case wasm.OpI64TruncSatF32S:
		return uint64(SatToI64S(float64(f32(x)))), rt.TrapNone, true
	case wasm.OpI64TruncSatF32U:
		return SatToI64U(float64(f32(x))), rt.TrapNone, true
	case wasm.OpI64TruncSatF64S:
		return uint64(SatToI64S(f64v(x))), rt.TrapNone, true
	case wasm.OpI64TruncSatF64U:
		return SatToI64U(f64v(x)), rt.TrapNone, true
	}
	return 0, rt.TrapNone, false
}

// EvalBin evaluates a binary numeric Wasm instruction on raw bits.
// ok=false means the opcode is not a binary numeric op.
func EvalBin(op wasm.Opcode, x, y uint64) (r uint64, trap rt.TrapKind, ok bool) {
	switch op {
	case wasm.OpI32Eq:
		return B2u(uint32(x) == uint32(y)), rt.TrapNone, true
	case wasm.OpI32Ne:
		return B2u(uint32(x) != uint32(y)), rt.TrapNone, true
	case wasm.OpI32LtS:
		return B2u(int32(x) < int32(y)), rt.TrapNone, true
	case wasm.OpI32LtU:
		return B2u(uint32(x) < uint32(y)), rt.TrapNone, true
	case wasm.OpI32GtS:
		return B2u(int32(x) > int32(y)), rt.TrapNone, true
	case wasm.OpI32GtU:
		return B2u(uint32(x) > uint32(y)), rt.TrapNone, true
	case wasm.OpI32LeS:
		return B2u(int32(x) <= int32(y)), rt.TrapNone, true
	case wasm.OpI32LeU:
		return B2u(uint32(x) <= uint32(y)), rt.TrapNone, true
	case wasm.OpI32GeS:
		return B2u(int32(x) >= int32(y)), rt.TrapNone, true
	case wasm.OpI32GeU:
		return B2u(uint32(x) >= uint32(y)), rt.TrapNone, true
	case wasm.OpI64Eq:
		return B2u(x == y), rt.TrapNone, true
	case wasm.OpI64Ne:
		return B2u(x != y), rt.TrapNone, true
	case wasm.OpI64LtS:
		return B2u(int64(x) < int64(y)), rt.TrapNone, true
	case wasm.OpI64LtU:
		return B2u(x < y), rt.TrapNone, true
	case wasm.OpI64GtS:
		return B2u(int64(x) > int64(y)), rt.TrapNone, true
	case wasm.OpI64GtU:
		return B2u(x > y), rt.TrapNone, true
	case wasm.OpI64LeS:
		return B2u(int64(x) <= int64(y)), rt.TrapNone, true
	case wasm.OpI64LeU:
		return B2u(x <= y), rt.TrapNone, true
	case wasm.OpI64GeS:
		return B2u(int64(x) >= int64(y)), rt.TrapNone, true
	case wasm.OpI64GeU:
		return B2u(x >= y), rt.TrapNone, true
	case wasm.OpF32Eq:
		return B2u(f32(x) == f32(y)), rt.TrapNone, true
	case wasm.OpF32Ne:
		return B2u(f32(x) != f32(y)), rt.TrapNone, true
	case wasm.OpF32Lt:
		return B2u(f32(x) < f32(y)), rt.TrapNone, true
	case wasm.OpF32Gt:
		return B2u(f32(x) > f32(y)), rt.TrapNone, true
	case wasm.OpF32Le:
		return B2u(f32(x) <= f32(y)), rt.TrapNone, true
	case wasm.OpF32Ge:
		return B2u(f32(x) >= f32(y)), rt.TrapNone, true
	case wasm.OpF64Eq:
		return B2u(f64v(x) == f64v(y)), rt.TrapNone, true
	case wasm.OpF64Ne:
		return B2u(f64v(x) != f64v(y)), rt.TrapNone, true
	case wasm.OpF64Lt:
		return B2u(f64v(x) < f64v(y)), rt.TrapNone, true
	case wasm.OpF64Gt:
		return B2u(f64v(x) > f64v(y)), rt.TrapNone, true
	case wasm.OpF64Le:
		return B2u(f64v(x) <= f64v(y)), rt.TrapNone, true
	case wasm.OpF64Ge:
		return B2u(f64v(x) >= f64v(y)), rt.TrapNone, true

	case wasm.OpI32Add:
		return uint64(uint32(x) + uint32(y)), rt.TrapNone, true
	case wasm.OpI32Sub:
		return uint64(uint32(x) - uint32(y)), rt.TrapNone, true
	case wasm.OpI32Mul:
		return uint64(uint32(x) * uint32(y)), rt.TrapNone, true
	case wasm.OpI32DivS:
		a, b := int32(x), int32(y)
		if b == 0 {
			return 0, rt.TrapDivByZero, true
		}
		if a == math.MinInt32 && b == -1 {
			return 0, rt.TrapIntOverflow, true
		}
		return uint64(uint32(a / b)), rt.TrapNone, true
	case wasm.OpI32DivU:
		if uint32(y) == 0 {
			return 0, rt.TrapDivByZero, true
		}
		return uint64(uint32(x) / uint32(y)), rt.TrapNone, true
	case wasm.OpI32RemS:
		a, b := int32(x), int32(y)
		if b == 0 {
			return 0, rt.TrapDivByZero, true
		}
		if a == math.MinInt32 && b == -1 {
			return 0, rt.TrapNone, true
		}
		return uint64(uint32(a % b)), rt.TrapNone, true
	case wasm.OpI32RemU:
		if uint32(y) == 0 {
			return 0, rt.TrapDivByZero, true
		}
		return uint64(uint32(x) % uint32(y)), rt.TrapNone, true
	case wasm.OpI32And:
		return uint64(uint32(x) & uint32(y)), rt.TrapNone, true
	case wasm.OpI32Or:
		return uint64(uint32(x) | uint32(y)), rt.TrapNone, true
	case wasm.OpI32Xor:
		return uint64(uint32(x) ^ uint32(y)), rt.TrapNone, true
	case wasm.OpI32Shl:
		return uint64(uint32(x) << (uint32(y) & 31)), rt.TrapNone, true
	case wasm.OpI32ShrS:
		return uint64(uint32(int32(x) >> (uint32(y) & 31))), rt.TrapNone, true
	case wasm.OpI32ShrU:
		return uint64(uint32(x) >> (uint32(y) & 31)), rt.TrapNone, true
	case wasm.OpI32Rotl:
		return uint64(bits.RotateLeft32(uint32(x), int(uint32(y)&31))), rt.TrapNone, true
	case wasm.OpI32Rotr:
		return uint64(bits.RotateLeft32(uint32(x), -int(uint32(y)&31))), rt.TrapNone, true

	case wasm.OpI64Add:
		return x + y, rt.TrapNone, true
	case wasm.OpI64Sub:
		return x - y, rt.TrapNone, true
	case wasm.OpI64Mul:
		return x * y, rt.TrapNone, true
	case wasm.OpI64DivS:
		a, b := int64(x), int64(y)
		if b == 0 {
			return 0, rt.TrapDivByZero, true
		}
		if a == math.MinInt64 && b == -1 {
			return 0, rt.TrapIntOverflow, true
		}
		return uint64(a / b), rt.TrapNone, true
	case wasm.OpI64DivU:
		if y == 0 {
			return 0, rt.TrapDivByZero, true
		}
		return x / y, rt.TrapNone, true
	case wasm.OpI64RemS:
		a, b := int64(x), int64(y)
		if b == 0 {
			return 0, rt.TrapDivByZero, true
		}
		if a == math.MinInt64 && b == -1 {
			return 0, rt.TrapNone, true
		}
		return uint64(a % b), rt.TrapNone, true
	case wasm.OpI64RemU:
		if y == 0 {
			return 0, rt.TrapDivByZero, true
		}
		return x % y, rt.TrapNone, true
	case wasm.OpI64And:
		return x & y, rt.TrapNone, true
	case wasm.OpI64Or:
		return x | y, rt.TrapNone, true
	case wasm.OpI64Xor:
		return x ^ y, rt.TrapNone, true
	case wasm.OpI64Shl:
		return x << (y & 63), rt.TrapNone, true
	case wasm.OpI64ShrS:
		return uint64(int64(x) >> (y & 63)), rt.TrapNone, true
	case wasm.OpI64ShrU:
		return x >> (y & 63), rt.TrapNone, true
	case wasm.OpI64Rotl:
		return bits.RotateLeft64(x, int(y&63)), rt.TrapNone, true
	case wasm.OpI64Rotr:
		return bits.RotateLeft64(x, -int(y&63)), rt.TrapNone, true

	case wasm.OpF32Add:
		return rf32(f32(x) + f32(y)), rt.TrapNone, true
	case wasm.OpF32Sub:
		return rf32(f32(x) - f32(y)), rt.TrapNone, true
	case wasm.OpF32Mul:
		return rf32(f32(x) * f32(y)), rt.TrapNone, true
	case wasm.OpF32Div:
		return rf32(f32(x) / f32(y)), rt.TrapNone, true
	case wasm.OpF32Min:
		return rf32(FMin32(f32(x), f32(y))), rt.TrapNone, true
	case wasm.OpF32Max:
		return rf32(FMax32(f32(x), f32(y))), rt.TrapNone, true
	case wasm.OpF32Copysign:
		return rf32(float32(math.Copysign(float64(f32(x)), float64(f32(y))))), rt.TrapNone, true
	case wasm.OpF64Add:
		return rf64(f64v(x) + f64v(y)), rt.TrapNone, true
	case wasm.OpF64Sub:
		return rf64(f64v(x) - f64v(y)), rt.TrapNone, true
	case wasm.OpF64Mul:
		return rf64(f64v(x) * f64v(y)), rt.TrapNone, true
	case wasm.OpF64Div:
		return rf64(f64v(x) / f64v(y)), rt.TrapNone, true
	case wasm.OpF64Min:
		return rf64(FMin64(f64v(x), f64v(y))), rt.TrapNone, true
	case wasm.OpF64Max:
		return rf64(FMax64(f64v(x), f64v(y))), rt.TrapNone, true
	case wasm.OpF64Copysign:
		return rf64(math.Copysign(f64v(x), f64v(y))), rt.TrapNone, true
	}
	return 0, rt.TrapNone, false
}
