package mach

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
)

// limitsCode is a hand-built code object at the edges of the record
// encoding: operands at the int32 extremes, a full-width immediate, pc
// deltas that are negative, exactly at the escape (15) and far past it,
// a branch to the last instruction, a br_table.
func limitsCode() *Code {
	return &Code{
		FuncIdx: 7, Name: "limits",
		Instrs: []Instr{
			{Op: OConst, A: math.MinInt32, B: math.MaxInt32, C: math.MinInt32, Imm: math.MaxUint64},
			{Op: OMov, A: math.MaxInt32, B: math.MinInt32, C: math.MaxInt32},
			{Op: OJump, Imm: 5},
			{Op: OBrTable, A: 1, B: 3},
			{Op: OBrI64GeU, B: 1, C: 2, Imm: 0},
			{Op: opCount - 1},
		},
		WasmPC:     []int32{14, 29, 9, math.MaxInt32, math.MinInt32, 0},
		OSREntries: map[int]int{40: 2, 12: 5},
		Tables:     [][]int32{{0}, {5, 0, 3}},
		Stackmaps:  map[int][]int32{9: {1, -2}, 3: {}},
		NumSlots:   9, NumResults: 1, NumParams: 2,
		LocalTypes: []wasm.ValueType{wasm.I32, wasm.F64, wasm.I64},
		CodeBytes:  24,
	}
}

func encodeCode(t *testing.T, c *Code) []byte {
	t.Helper()
	w := wbin.NewWriter(0)
	if err := c.AppendTo(w); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestCodeRoundTripLimits: encode → decode → encode is byte-identical
// and the decoded object equals the original, with and without an arena,
// for the limits object, a zero-instruction body, and bodies of every
// length up to a few records — so the last record of the input is read
// once by Record's body (slack follows it) and once by its tail.
func TestCodeRoundTripLimits(t *testing.T) {
	codes := []*Code{limitsCode(), {Name: "empty", Instrs: []Instr{}, WasmPC: []int32{}, LocalTypes: []wasm.ValueType{}}}
	for n := 1; n <= 4; n++ {
		c := limitsCode()
		c.Instrs, c.WasmPC = c.Instrs[:n], c.WasmPC[:n]
		c.Instrs[n-1] = Instr{Op: OReturn}
		c.OSREntries, c.Tables = nil, nil
		for i := range c.Instrs {
			if c.Instrs[i].Op == OJump || c.Instrs[i].Op == OBrTable {
				c.Instrs[i] = Instr{Op: ONop}
			}
		}
		codes = append(codes, c)
	}
	for _, want := range codes {
		enc := encodeCode(t, want)
		for _, slack := range []int{0, wbin.MaxRecordLen} {
			for _, arena := range []*DecodeArena{nil, NewDecodeArena(1, len(want.Instrs), len(want.LocalTypes))} {
				r := wbin.NewReader(append(append([]byte(nil), enc...), make([]byte, slack)...))
				got, err := DecodeCode(r, arena)
				if err != nil {
					t.Fatalf("%s: decode: %v", want.Name, err)
				}
				if r.Remaining() != slack {
					t.Errorf("%s: decode left %d bytes, want %d", want.Name, r.Remaining(), slack)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: decoded\n%+v\nwant\n%+v", want.Name, got, want)
				}
				if again := encodeCode(t, got); !bytes.Equal(again, enc) {
					t.Errorf("%s: re-encoding differs (%d vs %d bytes)", want.Name, len(again), len(enc))
				}
			}
		}
	}
}

// TestCodeTruncation: a code section cut at any byte is an error, never
// a panic and never a short object.
func TestCodeTruncation(t *testing.T) {
	enc := encodeCode(t, limitsCode())
	for cut := 0; cut < len(enc); cut++ {
		if c, err := DecodeCode(wbin.NewReader(enc[:cut]), nil); err == nil {
			t.Fatalf("cut at %d of %d decoded to %+v", cut, len(enc), c)
		}
	}
}

// TestDecodeRejectsWildTargets: run indexes code[pc] and Tables[A]
// unchecked, so every control transfer a code section can name must be
// proven in range when it is decoded.
func TestDecodeRejectsWildTargets(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*Code)
	}{
		{"jump to len", "branch target", func(c *Code) { c.Instrs[2].Imm = uint64(len(c.Instrs)) }},
		{"jump far", "branch target", func(c *Code) { c.Instrs[2].Imm = math.MaxUint64 }},
		{"fused branch to len", "branch target", func(c *Code) { c.Instrs[4].Imm = uint64(len(c.Instrs)) }},
		{"br_if to len", "branch target", func(c *Code) { c.Instrs[5] = Instr{Op: OBrIfZero, Imm: 6} }},
		{"br_table index", "br_table index", func(c *Code) { c.Instrs[3].A = 2 }},
		{"br_table negative index", "br_table index", func(c *Code) { c.Instrs[3].A = -1 }},
		{"br_table target", "br_table target", func(c *Code) { c.Tables[1][2] = 6 }},
		{"br_table empty vector", "empty br_table", func(c *Code) { c.Tables[0] = nil }},
		{"opcode", "opcode", func(c *Code) { c.Instrs[1].Op = opCount }},
		{"OSR entry", "OSR entry", func(c *Code) { c.OSREntries[12] = 6 }},
	}
	for _, tc := range cases {
		c := limitsCode()
		tc.mutate(c)
		_, err := DecodeCode(wbin.NewReader(encodeCode(t, c)), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestAppendToRefusesPartialPCMap(t *testing.T) {
	c := limitsCode()
	c.WasmPC = c.WasmPC[:3]
	if err := c.AppendTo(wbin.NewWriter(0)); err != ErrNotSerializable {
		t.Errorf("AppendTo with a short pc map: %v, want ErrNotSerializable", err)
	}
}
