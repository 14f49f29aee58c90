package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// ctrl is a control-stack entry mirroring the validator's, extended with
// machine labels and the abstract-state snapshot taken at splits.
type ctrl struct {
	op         wasm.Opcode
	startTypes []wasm.ValueType
	endTypes   []wasm.ValueType
	height     int // operand height at entry, params excluded

	endLabel    int
	elseLabel   int // if only
	headerLabel int // loop only (bound at entry)

	unreachable bool
	hasElse     bool
	branched    bool // some branch targets this frame's label
	ifReachable bool // the if itself was in reachable code
	saved       *state
}

func (f *ctrl) labelArity() int {
	if f.op == wasm.OpLoop {
		return len(f.startTypes)
	}
	return len(f.endTypes)
}

type compiler struct {
	m      *wasm.Module
	fidx   uint32
	decl   *wasm.Func
	info   *validate.FuncInfo
	probes *rt.ProbeSet
	cfg    Config
	asm    *mach.Asm

	st      state
	ctrls   []ctrl
	nLocals int
	// pending points at pendingBuf while a compare is deferred.
	pending    *pendingCmp
	pendingBuf pendingCmp
	// free holds snapshot buffers of closed ifs for the next if to take.
	free []*state

	// osrEntries and stackmaps are allocated when first written.
	osrEntries map[int]int
	stackmaps  map[int][]int32
	pinned     []int8 // local index -> dedicated register, or noReg
	counters   []*rt.CounterProbe
	tosProbes  []rt.TosProbe

	opPC int
}

// setPending defers the compare p one instruction.
func (c *compiler) setPending(p pendingCmp) {
	c.pendingBuf = p
	c.pending = &c.pendingBuf
}

// snapshot returns a deep copy of the abstract state — the paper's
// "making copy extremely cheap (i.e. memcpy)" strategy for control-flow
// splits — in a recycled buffer when one is free.
func (c *compiler) snapshot() *state {
	var cp *state
	if n := len(c.free); n > 0 {
		cp, c.free = c.free[n-1], c.free[:n-1]
	} else {
		cp = new(state)
	}
	cp.avals = append(cp.avals[:0], c.st.avals...)
	cp.h, cp.regs = c.st.h, c.st.regs
	return cp
}

// ---- slot and register plumbing ----

func (c *compiler) slotOf(operandPos int) int { return c.nLocals + operandPos }
func (c *compiler) top() int                  { return c.nLocals + c.st.h - 1 }

// alloc returns a register, spilling a victim if the file is full.
func (c *compiler) alloc() int8 {
	if r := c.st.regs.tryAlloc(); r != noReg {
		return r
	}
	for i := 0; i < c.st.regs.limit; i++ {
		v := c.st.regs.victim()
		c.spillReg(v)
		if c.st.regs.refs[v] == 0 {
			c.st.regs.refs[v] = 1
			return v
		}
	}
	panic("spc: register file wedged (all registers pinned)")
}

// spillReg evicts every slot cached in reg, storing dirty values.
func (c *compiler) spillReg(reg int8) {
	limit := c.nLocals + c.st.h
	for i := 0; i < limit; i++ {
		av := &c.st.avals[i]
		if av.reg == reg {
			if !av.inMem {
				c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: int32(reg), Imm: uint64(i)})
				av.inMem = true
			}
			av.reg = noReg
			c.st.regs.release(reg)
		}
	}
}

// ensureReg materializes v (popped from slot slotIdx) into a register.
func (c *compiler) ensureReg(v *aval, slotIdx int) int8 {
	if v.reg != noReg {
		return v.reg
	}
	r := c.alloc()
	switch {
	case v.isConst:
		c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(r), Imm: v.konst})
	case v.inMem:
		c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: int32(r), Imm: uint64(slotIdx)})
	default:
		panic("spc: value neither constant, register, nor memory")
	}
	v.reg = r
	return r
}

// push appends an operand slot with the given abstract value, applying
// eager operand tagging.
func (c *compiler) push(av aval) *aval {
	idx := c.nLocals + c.st.h
	if idx >= len(c.st.avals) {
		c.room(idx + 1)
	}
	// Field by field: callers build av one narrow store at a time, and
	// one wide copy of it would stall on store forwarding.
	s := &c.st.avals[idx]
	s.typ, s.reg, s.isConst, s.konst, s.inMem, s.tagFresh = av.typ, av.reg, av.isConst, av.konst, av.inMem, av.tagFresh
	c.st.h++
	if c.cfg.Tags == rt.TagsEager || c.cfg.Tags == rt.TagsEagerOperands {
		c.emitTag(idx, av.typ)
		c.st.avals[idx].tagFresh = true
	}
	return &c.st.avals[idx]
}

// room grows the abstract stack to at least n slots. Only push and
// resetState set a height no earlier instruction reached.
func (c *compiler) room(n int) {
	c.st.avals = append(c.st.avals, make([]aval, n-len(c.st.avals))...)
}

// pop removes the top operand and returns a copy. The caller must
// release its register reference (or transfer it) once consumed.
func (c *compiler) pop() aval {
	c.st.h--
	return c.st.avals[c.nLocals+c.st.h]
}

func (c *compiler) release(v *aval) {
	if v.reg != noReg {
		c.st.regs.release(v.reg)
		v.reg = noReg
	}
}

// destReg picks a destination register for an op result, reusing a
// source register when this op holds its only reference.
func (c *compiler) destReg(srcs ...*aval) int8 {
	for _, s := range srcs {
		if s.reg != noReg && c.st.regs.refs[s.reg] == 1 {
			r := s.reg
			s.reg = noReg // ownership transferred to the result
			return r
		}
	}
	for _, s := range srcs {
		c.release(s)
	}
	return c.alloc()
}

// releaseAll drops remaining references of sources not consumed by
// destReg reuse.
func (c *compiler) releaseAll(srcs ...*aval) {
	for _, s := range srcs {
		c.release(s)
	}
}

func (c *compiler) emitTag(slot int, t wasm.ValueType) {
	c.asm.Emit(mach.Instr{Op: mach.OStoreTag, A: int32(wasm.TagOf(t)), Imm: uint64(slot)})
}

// ---- canonicalization ----

// flush writes every dirty slot back to the value stack, keeping
// register bindings and constant knowledge (the redundant-spill
// avoidance the paper lists: already-written slots emit nothing).
func (c *compiler) flush() { c.flushExcept(0) }

// dropRegs forgets all register bindings (after calls, which clobber
// caller-saved registers).
func (c *compiler) dropRegs() {
	limit := c.nLocals + c.st.h
	for i := 0; i < limit; i++ {
		if i < c.nLocals && c.isPinned(i) {
			continue
		}
		c.st.avals[i].reg = noReg
	}
	c.st.regs.reset()
	c.rebindPinned()
}

// resetState installs the canonical merge state: operand stack of the
// given types, everything in memory, no registers, no constants.
func (c *compiler) resetState(height int, types []wasm.ValueType) {
	if n := c.nLocals + height; n > len(c.st.avals) {
		c.room(n)
	}
	c.st.regs.reset()
	for i := 0; i < c.nLocals; i++ {
		av := &c.st.avals[i]
		av.reg = noReg
		av.isConst = false
		av.inMem = true
		av.tagFresh = c.localTagsAlwaysFresh()
	}
	c.rebindPinned()
	for i := 0; i < height; i++ {
		idx := c.nLocals + i
		var t wasm.ValueType
		if i >= height-len(types) {
			t = types[i-(height-len(types))]
		} else {
			// Slots beneath the merged values belong to enclosing
			// frames; their types are unknown here but irrelevant —
			// they are in memory with fresh-enough tags only if an
			// observation stored them, so mark them stale.
			t = c.st.avals[idx].typ
		}
		c.st.avals[idx] = aval{typ: t, reg: noReg, inMem: true,
			tagFresh: c.cfg.Tags == rt.TagsEager || c.cfg.Tags == rt.TagsEagerOperands}
	}
	c.st.h = height
}

func (c *compiler) localTagsAlwaysFresh() bool {
	switch c.cfg.Tags {
	case rt.TagsOnDemand, rt.TagsEager, rt.TagsEagerLocals:
		// Local types are static; the prologue stored their tags once
		// (params by the caller) and they never change.
		return true
	}
	return false
}

// syncTags stores stale tags before an observation point (calls,
// probes) — the on-demand strategy that Figure 5 shows eliminates
// nearly all tagging overhead.
func (c *compiler) syncTags() {
	switch c.cfg.Tags {
	case rt.TagsOnDemand:
		limit := c.nLocals + c.st.h
		for i := 0; i < limit; i++ {
			av := &c.st.avals[i]
			if !av.tagFresh {
				c.emitTag(i, av.typ)
				av.tagFresh = true
			}
		}
	case rt.TagsLazy:
		// Locals are reconstructed by the stack walker; only operand
		// tags are stored.
		limit := c.nLocals + c.st.h
		for i := c.nLocals; i < limit; i++ {
			av := &c.st.avals[i]
			if !av.tagFresh {
				c.emitTag(i, av.typ)
				av.tagFresh = true
			}
		}
	}
}

// ---- pending-compare (peephole) handling ----

// matPending emits the deferred comparison into a register.
func (c *compiler) matPending() {
	p := c.pending
	if p == nil {
		return
	}
	c.pending = nil
	topIdx := c.top()
	var rd int8
	if p.isImm {
		rimm := c.alloc()
		c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(rimm), Imm: p.imm})
		rd = c.alloc()
		mop, _ := regForm(p.op)
		c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(p.rb), C: int32(rimm)})
		c.st.regs.release(rimm)
		c.st.regs.release(p.rb)
	} else if p.op == wasm.OpI32Eqz || p.op == wasm.OpI64Eqz {
		rd = c.alloc()
		mop, _ := unForm(p.op)
		c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(p.rb)})
		c.st.regs.release(p.rb)
	} else {
		rd = c.alloc()
		mop, _ := regForm(p.op)
		c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(p.rb), C: int32(p.rc)})
		c.st.regs.release(p.rb)
		c.st.regs.release(p.rc)
	}
	av := &c.st.avals[topIdx]
	av.reg = rd
	av.inMem = false
	av.isConst = false
}

// emitFusedBranch consumes the pending compare (or a popped condition
// value) and emits the tightest branch to label: fused compare-branch,
// or a plain conditional branch. negate branches when the condition is
// false (used by `if`).
func (c *compiler) emitCondBranch(label int, negate bool) {
	if p := c.pending; p != nil && c.cfg.Peephole {
		c.pending = nil
		c.st.h-- // consume the pending compare's stack slot
		op := p.op
		if op == wasm.OpI32Eqz || op == wasm.OpI64Eqz {
			// eqz fuses to br_if_zero / br_if_nonzero directly.
			mop := mach.OBrIfZero
			if negate {
				mop = mach.OBrIfNonZero
			}
			if p.operandB == wasm.I64 {
				// No 64-bit zero-test branch; materialize via compare
				// against an immediate-zero i64 register path.
				rz := c.alloc()
				c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(rz), Imm: 0})
				fop := mach.OBrI64Eq
				if negate {
					fop = mach.OBrI64Ne
				}
				c.asm.EmitBranch(mach.Instr{Op: fop, B: int32(p.rb), C: int32(rz)}, label)
				c.st.regs.release(rz)
			} else {
				c.asm.EmitBranch(mach.Instr{Op: mop, B: int32(p.rb)}, label)
			}
			c.st.regs.release(p.rb)
			return
		}
		if negate {
			op = invertCmp(op)
		}
		if mop, ok := fusedBr(op, p.operandB, p.isImm); ok {
			in := mach.Instr{Op: mop, B: int32(p.rb)}
			if p.isImm {
				in.C = int32(uint32(p.imm))
			} else {
				in.C = int32(p.rc)
			}
			c.asm.EmitBranch(in, label)
			c.st.regs.release(p.rb)
			if !p.isImm {
				c.st.regs.release(p.rc)
			}
			return
		}
		// Unfusable pending (shouldn't happen): re-install and fall
		// through to materialization.
		c.pending = p
		c.st.h++
	}
	c.matPending()
	v := c.pop()
	r := c.ensureReg(&v, c.nLocals+c.st.h)
	op := mach.OBrIfNonZero
	if negate {
		op = mach.OBrIfZero
	}
	c.asm.EmitBranch(mach.Instr{Op: op, B: int32(r)}, label)
	c.release(&v)
}

// ---- branch value transfer ----

// transferTo stores the top `arity` operand values into the target
// positions expected at the destination label (destHeight.. in operand
// positions). Emitted code only; the abstract state is not updated, so
// callers on conditional paths can keep compiling the fall-through.
func (c *compiler) transferTo(destHeight, arity int) {
	if arity == 0 {
		return
	}
	srcBase := c.st.h - arity
	if srcBase == destHeight {
		// Already in place; ensure values are in memory.
		for i := 0; i < arity; i++ {
			idx := c.slotOf(srcBase + i)
			av := c.st.avals[idx] // copy: do not mutate fall-through state
			if av.inMem {
				continue
			}
			if av.reg != noReg {
				c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: int32(av.reg), Imm: uint64(idx)})
			} else {
				c.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(idx), Imm: av.konst})
			}
		}
		return
	}
	for i := 0; i < arity; i++ {
		src := c.slotOf(srcBase + i)
		dst := c.slotOf(destHeight + i)
		av := c.st.avals[src]
		switch {
		case av.reg != noReg:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: int32(av.reg), Imm: uint64(dst)})
		case av.isConst:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(dst), Imm: av.konst})
		default:
			// The reserved scratch register avoids alloc() here, which
			// could emit victim spills on a conditionally-taken path
			// and desynchronize the fall-through abstract state.
			c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: scratchReg, Imm: uint64(src)})
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: scratchReg, Imm: uint64(dst)})
		}
	}
}

// frameAt returns the control frame for branch depth d.
func (c *compiler) frameAt(d uint32) *ctrl {
	return &c.ctrls[len(c.ctrls)-1-int(d)]
}

// branchTo compiles an unconditional transfer to the frame at depth d:
// flush, move the label arity values into place, jump.
func (c *compiler) branchTo(d uint32) {
	fr := c.frameAt(d)
	fr.branched = true
	arity := fr.labelArity()
	c.flush()
	c.transferTo(fr.height, arity)
	if fr.op == wasm.OpLoop {
		c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.headerLabel)
	} else {
		c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.endLabel)
	}
	// Pop the transferred values abstractly.
	for i := 0; i < arity; i++ {
		v := c.pop()
		c.release(&v)
	}
}
