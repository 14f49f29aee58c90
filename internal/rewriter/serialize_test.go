package rewriter

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
)

// limitsCode is a hand-built translated body at the edges of the record
// encoding: operands at the int32 extremes, a full-width immediate, a
// prefixed opcode, branches to the last instruction, a br_table.
func limitsCode() *Code {
	return &Code{
		Instrs: []Instr{
			{Op: wasm.OpI64Const, A: math.MinInt32, B: math.MaxInt32, Imm: math.MaxUint64},
			{Op: wasm.OpMemoryFill, A: math.MaxInt32, B: math.MinInt32},
			{Op: opBr, A: 1, B: 2, Target: 5},
			{Op: opBrIfNZ, Target: 0},
			{Op: opBrTableX, A: 1},
			{Op: opReturn},
		},
		Tables:   [][]int32{{0}, {5, 0, 3}},
		NumSlots: 9, NumResults: 1, NumParams: 2,
		LocalTypes: []wasm.ValueType{wasm.I32, wasm.F64, wasm.I64},
		codeBytes:  96,
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

func TestCodeRoundTripLimits(t *testing.T) {
	codes := []*Code{limitsCode(), {Instrs: []Instr{}, LocalTypes: []wasm.ValueType{}}}
	for _, want := range codes {
		enc := encodeCode(t, want)
		for _, arena := range []*DecodeArena{nil, NewDecodeArena(1, len(want.Instrs), len(want.LocalTypes))} {
			r := wbin.NewReader(enc)
			got, err := DecodeCode(r, arena)
			if err != nil {
				t.Fatal(err)
			}
			if r.Remaining() != 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("decoded (%d bytes left)\n%+v\nwant\n%+v", r.Remaining(), got, want)
			}
			if again := encodeCode(t, got); !bytes.Equal(again, enc) {
				t.Errorf("re-encoding differs (%d vs %d bytes)", len(again), len(enc))
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if c, err := DecodeCode(wbin.NewReader(enc[:cut]), nil); err == nil {
				t.Fatalf("cut at %d of %d decoded to %+v", cut, len(enc), c)
			}
		}
	}
}

// TestDecodeRejectsWildTargets: run indexes code[pc] and Tables[A]
// unchecked, so every control transfer a body can name must be proven in
// range when it is decoded.
func TestDecodeRejectsWildTargets(t *testing.T) {
	cases := []struct {
		name, want string
		mutate     func(*Code)
	}{
		{"br to len", "branch target", func(c *Code) { c.Instrs[2].Target = int32(len(c.Instrs)) }},
		{"br_if negative", "branch target", func(c *Code) { c.Instrs[3].Target = -1 }},
		{"br_table index", "br_table index", func(c *Code) { c.Instrs[4].A = 2 }},
		{"br_table negative index", "br_table index", func(c *Code) { c.Instrs[4].A = -1 }},
		{"br_table target", "br_table target", func(c *Code) { c.Tables[1][2] = 6 }},
		{"br_table empty vector", "empty br_table", func(c *Code) { c.Tables[0] = nil }},
	}
	for _, tc := range cases {
		c := limitsCode()
		tc.mutate(c)
		_, err := DecodeCode(wbin.NewReader(encodeCode(t, c)), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// An opcode wider than wasm.Opcode is not truncated into a valid one.
	w := wbin.NewWriter(0)
	w.Uvarint(1)
	w.Record(math.MaxUint16+1+uint64(wasm.OpNop), 0, 0, 0, 0, 0)
	if _, err := DecodeCode(wbin.NewReader(append(w.Bytes(), make([]byte, 16)...)), nil); err == nil || !strings.Contains(err.Error(), "opcode") {
		t.Errorf("17-bit opcode: err = %v", err)
	}
}
