package wasm

import (
	"fmt"
	"reflect"
	"testing"
)

// refTable is the opcode table as it was stored before it became a dense
// array: a map holding exactly the assigned entries, queried with the
// original map-based accessors below. The dense accessors must agree
// with it on every possible Opcode value.
func refTable() map[Opcode]opInfo {
	ref := make(map[Opcode]opInfo)
	for i, info := range opTable {
		if info.name != "" {
			ref[Opcode(i)] = info
		}
	}
	return ref
}

func refSig(ref map[Opcode]opInfo, op Opcode) (params, results []ValueType, ok bool) {
	info, found := ref[op]
	if !found || (info.params == nil && info.results == nil) {
		return nil, nil, false
	}
	switch op {
	case OpUnreachable, OpNop, OpBlock, OpLoop, OpIf, OpElse, OpEnd, OpBr,
		OpBrIf, OpBrTable, OpReturn, OpCall, OpCallIndirect, OpDrop,
		OpSelect, OpSelectT, OpLocalGet, OpLocalSet, OpLocalTee,
		OpGlobalGet, OpGlobalSet, OpRefNull, OpRefIsNull, OpRefFunc:
		return nil, nil, false
	}
	return info.params, info.results, true
}

func refIsPure(ref map[Opcode]opInfo, op Opcode) bool {
	switch op {
	case OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU,
		OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU,
		OpI32TruncF32S, OpI32TruncF32U, OpI32TruncF64S, OpI32TruncF64U,
		OpI64TruncF32S, OpI64TruncF32U, OpI64TruncF64S, OpI64TruncF64U:
		return false
	}
	_, _, simple := refSig(ref, op)
	return simple
}

// TestOpcodeTableEquivalence walks all 65 536 Opcode values — the table,
// the gap above it, and validate's 0xFFFF sentinel included — so an
// out-of-range index would panic here rather than in a tier.
func TestOpcodeTableEquivalence(t *testing.T) {
	ref := refTable()
	known, simple := 0, 0
	for v := 0; v <= 0xFFFF; v++ {
		op := Opcode(v)
		info, want := ref[op]
		if op.Known() != want {
			t.Fatalf("Known(%#x) = %v, want %v", v, op.Known(), want)
		}
		if op.Imm() != info.imm {
			t.Fatalf("Imm(%#x) = %v, want %v", v, op.Imm(), info.imm)
		}
		wantName := fmt.Sprintf("opcode(0x%x)", v)
		if want {
			wantName = info.name
			known++
		}
		if op.String() != wantName {
			t.Fatalf("String(%#x) = %q, want %q", v, op.String(), wantName)
		}
		p, r, ok := op.Sig()
		wp, wr, wok := refSig(ref, op)
		if ok != wok || !reflect.DeepEqual(p, wp) || !reflect.DeepEqual(r, wr) {
			t.Fatalf("Sig(%#x) = %v %v %v, want %v %v %v", v, p, r, ok, wp, wr, wok)
		}
		if ok {
			simple++
		}
		s := op.Shape()
		var sr []ValueType
		if s.NResults == 1 {
			sr = []ValueType{s.Result}
		}
		if s.Imm != info.imm || s.Simple != wok || int(s.NParams) != len(wp) || int(s.NResults) != len(wr) ||
			!reflect.DeepEqual(s.Params[:s.NParams], append([]ValueType{}, wp...)) || (len(wr) <= 1 && !reflect.DeepEqual(sr, wr)) {
			t.Fatalf("Shape(%#x) = %+v, want imm %v sig %v %v %v", v, *s, info.imm, wp, wr, wok)
		}
		if op.IsPure() != refIsPure(ref, op) {
			t.Fatalf("IsPure(%#x) = %v, want %v", v, op.IsPure(), refIsPure(ref, op))
		}
	}
	if known != 191 || simple != 167 {
		t.Errorf("table holds %d known and %d simple opcodes, want 191 and 167", known, simple)
	}
}

// TestOpcodeRoundTrip: every assigned opcode (each is a named Op…
// constant) survives AppendOpcode → ReadOpcode, consuming exactly its
// own bytes.
func TestOpcodeRoundTrip(t *testing.T) {
	for op := range refTable() {
		r := NewReader(AppendOpcode(nil, op))
		got, err := r.ReadOpcode()
		if err != nil || got != op || r.Len() != 0 {
			t.Errorf("%v: read back %v, err %v, %d bytes left", op, got, err, r.Len())
		}
	}
}

// TestReadOpcodeRejectsPrefixedOutOfPage: a 0xFC sub-opcode past the
// table's page used to be folded into uint16 and wrap, so FC EA FE 03
// (sub-opcode 0xFF6A) read as i32.add. Sub-opcodes inside the page that
// are merely unassigned (8: memory.init) still decode, as unknown.
func TestReadOpcodeRejectsPrefixedOutOfPage(t *testing.T) {
	for _, sub := range []uint32{12, 0xFF00 + uint32(OpI32Add), 0x10000, 0xFFFFFFFF} {
		body := AppendU32([]byte{PrefixFC}, sub)
		if op, err := NewReader(body).ReadOpcode(); err == nil {
			t.Errorf("sub-opcode %#x decoded as %v, want an error", sub, op)
		}
	}
	op, err := NewReader([]byte{PrefixFC, 8}).ReadOpcode()
	if err != nil || op.Known() {
		t.Errorf("in-page unassigned sub-opcode: %v (known %v), err %v", op, op.Known(), err)
	}
	if op, err := NewReader([]byte{PrefixFC, 11}).ReadOpcode(); err != nil || op != OpMemoryFill {
		t.Errorf("memory.fill: %v, err %v", op, err)
	}
}
