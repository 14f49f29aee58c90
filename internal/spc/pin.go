package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/wasm"
)

// analyzeLocals is the optimizing tier's extra pre-pass: decode the body
// once, count local accesses, and pin the hottest locals into dedicated
// registers above the scratch window. Pinned locals keep their register
// across merges and calls (callee-saved style), which is precisely what
// a single forward pass cannot provide and why optimizing tiers beat
// baselines on loop-heavy code. The body is not validated yet: the
// count stops at the first bytes that do not decode, and the walk that
// follows reports them. It is the one decoder outside the validator's
// walk in a translating package: the counts must be known before the
// walk starts.
func (c *compiler) analyzeLocals() {
	if c.cfg.PinLocals <= 0 {
		return
	}
	counts := make([]int, len(c.info.LocalTypes))
	r := wasm.NewReader(c.decl.Body) //vet:allow onedecoder
	for r.Len() > 0 {
		op, err := r.ReadOpcode() //vet:allow onedecoder
		if err != nil {
			break
		}
		if op == wasm.OpLocalGet || op == wasm.OpLocalSet || op == wasm.OpLocalTee {
			idx, err := r.U32()
			if err != nil {
				break
			}
			if int(idx) < len(counts) {
				counts[idx]++
			}
		} else if r.SkipImm(op) != nil { //vet:allow onedecoder
			break
		}
	}

	maxPins := mach.NumRegs - c.cfg.NumRegs - 1 // reserve the scratch register
	if c.cfg.PinLocals < maxPins {
		maxPins = c.cfg.PinLocals
	}
	c.pinned = make([]int8, len(c.info.LocalTypes))
	for i := range c.pinned {
		c.pinned[i] = noReg
	}
	// Select the most-used non-reference locals.
	type cand struct{ idx, count int }
	var cands []cand
	for i, n := range counts {
		if n > 0 && !c.info.LocalTypes[i].IsRef() {
			cands = append(cands, cand{i, n})
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].count > cands[j-1].count; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	next := int8(c.cfg.NumRegs)
	for i := 0; i < len(cands) && i < maxPins; i++ {
		c.pinned[cands[i].idx] = next
		next++
	}
}

// isPinned reports whether slot (a local index) has a dedicated register.
func (c *compiler) isPinned(slot int) bool {
	return c.pinned != nil && slot < len(c.pinned) && c.pinned[slot] != noReg
}

// rebindPinned restores the permanent register bindings of pinned locals
// after a register-file reset (merges, calls).
func (c *compiler) rebindPinned() {
	if c.pinned == nil {
		return
	}
	for i, r := range c.pinned {
		if r == noReg {
			continue
		}
		av := &c.st.avals[i]
		av.reg = r
		c.st.regs.refs[r] = 1
	}
}

// pinnedPrologue loads parameters into their pinned registers and
// initializes pinned declared locals to zero.
func (c *compiler) pinnedPrologue(nParams int) {
	if c.pinned == nil {
		return
	}
	for i, r := range c.pinned {
		if r == noReg {
			continue
		}
		av := &c.st.avals[i]
		if i < nParams {
			c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: int32(r), Imm: uint64(i)})
		} else {
			c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(r), Imm: 0})
		}
		av.reg = r
		av.isConst = false
		c.st.regs.refs[r] = 1
	}
}
