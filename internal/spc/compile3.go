package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// instr compiles one validated Wasm instruction. Unreachable code
// generates nothing; control nesting is still tracked so labels resolve.
func (c *compiler) instr(in *validate.Instr) {
	op := in.Op
	if !c.reachable() {
		c.skipInstr(op)
		return
	}

	// Probes fire before the instruction executes; the site is an
	// observation point (Section IV-D).
	if c.probes != nil && c.probes.HasAt(c.opPC) {
		c.compileProbe(c.opPC)
	}

	// A deferred comparison can only be consumed by an immediately
	// following br_if or if; anything else materializes it.
	if c.pending != nil && op != wasm.OpBrIf && op != wasm.OpIf && op != wasm.OpDrop {
		c.matPending()
	}

	switch op {
	case wasm.OpUnreachable:
		c.asm.Emit(mach.Instr{Op: mach.OTrap, A: int32(rt.TrapUnreachable), Imm: uint64(c.opPC)})
		c.setUnreachable()
	case wasm.OpNop:
	case wasm.OpBlock:
		c.ctrls = append(c.ctrls, ctrl{
			op: wasm.OpBlock, startTypes: in.In, endTypes: in.Out,
			height:   c.st.h - len(in.In),
			endLabel: c.asm.NewLabel(), elseLabel: -1, headerLabel: -1,
			ifReachable: true,
		})
	case wasm.OpLoop:
		// Loop headers are merge points with unknown back-edge state:
		// canonicalize (flush + forget registers and constants), bind
		// the header, and plant the OSR/deopt checkpoint.
		c.flush()
		c.resetState(c.st.h, in.In)
		bodyPC := in.End
		header := c.asm.NewLabel()
		c.asm.Bind(header)
		c.asm.Emit(mach.Instr{Op: mach.OCheckPoint, A: int32(c.nLocals + c.st.h), Imm: uint64(bodyPC)})
		if c.pinned == nil {
			// With pinned locals the frame is not canonical at loop
			// headers, so OSR entry / deopt is not offered (optimizing
			// tiers in production engines behave the same way). The OSR
			// entry is recorded AFTER the checkpoint: the interpreter
			// has already charged fuel (and polled) at the back-edge it
			// tiers up from, so entering before the checkpoint would
			// charge that header arrival twice. Back-edges still jump
			// to the header label and execute the checkpoint.
			if c.osrEntries == nil {
				c.osrEntries = make(map[int]int)
			}
			c.osrEntries[bodyPC] = c.asm.Pos()
		}
		c.ctrls = append(c.ctrls, ctrl{
			op: wasm.OpLoop, startTypes: in.In, endTypes: in.Out,
			height:      c.st.h - len(in.In),
			headerLabel: header, endLabel: -1, elseLabel: -1,
			ifReachable: true,
		})
	case wasm.OpIf:
		elseLabel := c.asm.NewLabel()
		endLabel := c.asm.NewLabel()
		c.flushExcept(1)
		c.emitCondBranch(elseLabel, true)
		fr := ctrl{
			op: wasm.OpIf, startTypes: in.In, endTypes: in.Out,
			height:   c.st.h - len(in.In),
			endLabel: endLabel, elseLabel: elseLabel, headerLabel: -1,
			ifReachable: true,
		}
		fr.saved = c.snapshot()
		c.ctrls = append(c.ctrls, fr)
	case wasm.OpElse:
		fr := &c.ctrls[len(c.ctrls)-1]
		fr.hasElse = true
		if !fr.unreachable {
			c.matPending()
			c.flush()
			c.transferTo(fr.height, len(fr.endTypes))
			c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.endLabel)
			fr.branched = true
		}
		c.asm.Bind(fr.elseLabel)
		c.st.restore(fr.saved)
		fr.unreachable = !fr.ifReachable
	case wasm.OpEnd:
		c.compileEnd()
	case wasm.OpBr:
		c.branchTo(in.Idx)
		c.setUnreachable()
	case wasm.OpBrIf:
		depth := in.Idx
		fr := c.frameAt(depth)
		fr.branched = true
		arity := fr.labelArity()
		// Branch folding: a constant condition becomes an
		// unconditional branch or no code at all (feature "KF").
		if c.cfg.ConstFold && c.pending == nil && c.st.h > 0 {
			if av := c.st.avals[c.top()]; av.isConst {
				v := c.pop()
				c.release(&v)
				if uint32(av.konst) != 0 {
					c.branchTo(depth)
					c.setUnreachable()
				}
				return
			}
		}
		c.flushExcept(1)
		if arity == 0 {
			label := fr.endLabel
			if fr.op == wasm.OpLoop {
				label = fr.headerLabel
			}
			c.emitCondBranch(label, false)
		} else {
			skip := c.asm.NewLabel()
			c.emitCondBranch(skip, true)
			c.transferTo(fr.height, arity)
			label := fr.endLabel
			if fr.op == wasm.OpLoop {
				label = fr.headerLabel
			}
			c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, label)
			c.asm.Bind(skip)
		}
	case wasm.OpBrTable:
		c.compileBrTable(in.Targets)
	case wasm.OpReturn:
		c.epilogueReturn(false)
		c.setUnreachable()
	case wasm.OpCall:
		c.observableCall(c.opPC, len(in.In))
		argBase := c.nLocals + c.st.h - len(in.In)
		c.asm.Emit(mach.Instr{Op: mach.OCall, A: int32(in.Idx), B: int32(argBase)})
		c.finishCall(len(in.In), in.Out)
	case wasm.OpCallIndirect:
		idx := c.pop()
		ridx := c.ensureReg(&idx, c.nLocals+c.st.h)
		c.observableCall(c.opPC, len(in.In))
		argBase := c.nLocals + c.st.h - len(in.In)
		c.asm.Emit(mach.Instr{Op: mach.OCallIndirect, A: int32(in.Idx), B: int32(argBase), C: int32(ridx), Imm: in.Imm})
		c.release(&idx)
		c.finishCall(len(in.In), in.Out)

	case wasm.OpDrop:
		if c.pending != nil {
			p := c.pending
			c.pending = nil
			c.st.regs.release(p.rb)
			if !p.isImm && p.op != wasm.OpI32Eqz && p.op != wasm.OpI64Eqz {
				c.st.regs.release(p.rc)
			}
			c.st.h--
			return
		}
		v := c.pop()
		c.release(&v)
	case wasm.OpSelect, wasm.OpSelectT:
		c.compileSelect()

	case wasm.OpLocalGet:
		c.localGet(int(in.Idx))
	case wasm.OpLocalSet:
		c.localSet(int(in.Idx))
	case wasm.OpLocalTee:
		c.localSet(int(in.Idx))
		c.localGet(int(in.Idx))
	case wasm.OpGlobalGet:
		r := c.alloc()
		c.asm.Emit(mach.Instr{Op: mach.OGlobalGet, A: int32(r), Imm: uint64(in.Idx)})
		c.push(aval{typ: in.Type, reg: r})
	case wasm.OpGlobalSet:
		v := c.pop()
		rv := c.ensureReg(&v, c.nLocals+c.st.h)
		c.asm.Emit(mach.Instr{Op: mach.OGlobalSet, B: int32(rv), C: int32(wasm.TagOf(in.Type)), Imm: uint64(in.Idx)})
		c.release(&v)

	case wasm.OpI32Const:
		c.pushConst(wasm.I32, in.Imm)
	case wasm.OpI64Const:
		c.pushConst(wasm.I64, in.Imm)
	case wasm.OpF32Const:
		c.pushConst(wasm.F32, in.Imm)
	case wasm.OpF64Const:
		c.pushConst(wasm.F64, in.Imm)

	case wasm.OpMemorySize:
		r := c.alloc()
		c.asm.Emit(mach.Instr{Op: mach.OMemSize, A: int32(r)})
		c.push(aval{typ: wasm.I32, reg: r})
	case wasm.OpMemoryGrow:
		v := c.pop()
		rv := c.ensureReg(&v, c.nLocals+c.st.h)
		rd := c.destReg(&v)
		c.releaseAll(&v)
		c.asm.Emit(mach.Instr{Op: mach.OMemGrow, A: int32(rd), B: int32(rv)})
		c.push(aval{typ: wasm.I32, reg: rd})
	case wasm.OpMemoryCopy:
		n := c.pop()
		rn := c.ensureReg(&n, c.nLocals+c.st.h)
		src := c.pop()
		rs := c.ensureReg(&src, c.nLocals+c.st.h)
		dst := c.pop()
		rd := c.ensureReg(&dst, c.nLocals+c.st.h)
		c.asm.Emit(mach.Instr{Op: mach.OMemCopy, A: int32(rd), B: int32(rs), C: int32(rn)})
		c.releaseAll(&n, &src, &dst)
	case wasm.OpMemoryFill:
		n := c.pop()
		rn := c.ensureReg(&n, c.nLocals+c.st.h)
		val := c.pop()
		rv := c.ensureReg(&val, c.nLocals+c.st.h)
		dst := c.pop()
		rd := c.ensureReg(&dst, c.nLocals+c.st.h)
		c.asm.Emit(mach.Instr{Op: mach.OMemFill, A: int32(rd), B: int32(rv), C: int32(rn)})
		c.releaseAll(&n, &val, &dst)

	case wasm.OpRefNull:
		c.pushConst(wasm.ExternRef, wasm.NullRef)
	case wasm.OpRefIsNull:
		v := c.pop()
		rv := c.ensureReg(&v, c.nLocals+c.st.h)
		rd := c.destReg(&v)
		c.releaseAll(&v)
		c.asm.Emit(mach.Instr{Op: mach.OI64Eqz, A: int32(rd), B: int32(rv)})
		c.push(aval{typ: wasm.I32, reg: rd})
	case wasm.OpRefFunc:
		c.pushConst(wasm.FuncRef, uint64(in.Idx)+1)

	default:
		c.compileNumericOrMem(op, in.Imm)
	}
}

// pushConst pushes a constant abstract value, or materializes it when
// constant tracking is disabled (the "nok" ablation).
func (c *compiler) pushConst(t wasm.ValueType, bits uint64) {
	if c.cfg.TrackConsts {
		c.push(aval{typ: t, reg: noReg, isConst: true, konst: bits})
		return
	}
	r := c.alloc()
	c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(r), Imm: bits})
	c.push(aval{typ: t, reg: r})
}

// finishCall pops nparams arguments and pushes results after a call
// site. Registers are dropped: the callee clobbered them.
func (c *compiler) finishCall(nparams int, results []wasm.ValueType) {
	for range nparams {
		v := c.pop()
		c.release(&v)
	}
	c.dropRegs()
	for _, rtyp := range results {
		c.push(aval{typ: rtyp, reg: noReg, inMem: true, tagFresh: true})
	}
}

func (c *compiler) compileSelect() {
	cond := c.pop()
	rc := c.ensureReg(&cond, c.nLocals+c.st.h)
	b := c.pop()
	bSlot := c.nLocals + c.st.h
	a := c.pop()
	aSlot := c.nLocals + c.st.h
	if c.cfg.ConstFold && cond.isConst {
		c.release(&cond)
		if uint32(cond.konst) != 0 {
			c.release(&b)
			c.push(a)
		} else {
			// b moves down into a's slot, so what memory holds for b's
			// old slot (value and tag) says nothing about the new one.
			if b.inMem && !b.isConst {
				c.ensureReg(&b, bSlot)
			}
			b.inMem = false
			b.tagFresh = a.tagFresh
			c.release(&a)
			c.push(b)
		}
		return
	}
	ra := c.ensureReg(&a, aSlot)
	rb := c.ensureReg(&b, bSlot)
	var rd int8
	if c.st.regs.refs[ra] == 1 {
		rd = ra
		a.reg = noReg
	} else {
		rd = c.alloc()
		c.asm.Emit(mach.Instr{Op: mach.OMov, A: int32(rd), B: int32(ra)})
		c.release(&a)
	}
	c.asm.Emit(mach.Instr{Op: mach.OSelect, A: int32(rd), B: int32(rb), C: int32(rc)})
	c.release(&b)
	c.release(&cond)
	c.push(aval{typ: a.typ, reg: rd})
}

func (c *compiler) localGet(idx int) {
	local := &c.st.avals[idx]
	if c.isPinned(idx) {
		if c.cfg.MultiReg {
			c.st.regs.retain(local.reg)
			c.push(aval{typ: local.typ, reg: local.reg})
		} else {
			r := c.alloc()
			c.asm.Emit(mach.Instr{Op: mach.OMov, A: int32(r), B: int32(local.reg)})
			c.push(aval{typ: local.typ, reg: r})
		}
		return
	}
	if local.isConst {
		c.push(aval{typ: local.typ, reg: noReg, isConst: true, konst: local.konst})
		return
	}
	if local.reg != noReg {
		if c.cfg.MultiReg {
			c.st.regs.retain(local.reg)
			c.push(aval{typ: local.typ, reg: local.reg})
			return
		}
		// Pin the source register so allocating the copy's destination
		// cannot evict it (the victim spill would null local.reg
		// between the read and the move).
		src := local.reg
		c.st.regs.retain(src)
		r := c.alloc()
		c.asm.Emit(mach.Instr{Op: mach.OMov, A: int32(r), B: int32(src)})
		c.st.regs.release(src)
		c.push(aval{typ: local.typ, reg: r})
		return
	}
	// Local lives only in memory: load it, and with MR also cache the
	// register on the local so later reads cost nothing.
	r := c.alloc()
	c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: int32(r), Imm: uint64(idx)})
	if c.cfg.MultiReg {
		local.reg = r
		c.st.regs.retain(r)
	}
	c.push(aval{typ: c.st.avals[idx].typ, reg: r})
}

func (c *compiler) localSet(idx int) {
	v := c.pop()
	vSlot := c.nLocals + c.st.h
	local := &c.st.avals[idx]
	if c.isPinned(idx) {
		rP := c.pinned[idx]
		// A pinned register is overwritten in place, so any operand
		// slot still aliasing it (pushed by an earlier local.get) must
		// be moved to its own register first.
		if c.st.regs.refs[rP] > 1 {
			limit := c.nLocals + c.st.h
			for slot := 0; slot < limit; slot++ {
				if slot < c.nLocals && c.isPinned(slot) {
					continue // a pinned local's own binding is its home
				}
				av := &c.st.avals[slot]
				if av.reg != rP {
					continue
				}
				fresh := c.alloc()
				c.asm.Emit(mach.Instr{Op: mach.OMov, A: int32(fresh), B: int32(rP)})
				av.reg = fresh
				c.st.regs.release(rP)
			}
		}
		if v.isConst {
			c.asm.Emit(mach.Instr{Op: mach.OConst, A: int32(rP), Imm: v.konst})
		} else {
			rv := c.ensureReg(&v, vSlot)
			if rv != rP {
				c.asm.Emit(mach.Instr{Op: mach.OMov, A: int32(rP), B: int32(rv)})
			}
			c.release(&v)
		}
		return
	}
	if local.reg != noReg {
		c.st.regs.release(local.reg)
		local.reg = noReg
	}
	local.isConst = false
	switch {
	case v.isConst && c.cfg.TrackConsts:
		local.isConst = true
		local.konst = v.konst
		local.inMem = false
	case v.reg != noReg:
		local.reg = v.reg // transfer the popped value's reference
		local.inMem = false
	default:
		r := c.ensureReg(&v, vSlot)
		local.reg = r
		local.inMem = false
	}
	if c.cfg.Tags == rt.TagsEager || c.cfg.Tags == rt.TagsEagerLocals {
		c.emitTag(idx, local.typ)
		local.tagFresh = true
	}
}

// compileEnd closes the innermost construct: the merge-point logic of
// the single-pass approach.
func (c *compiler) compileEnd() {
	fr := c.ctrls[len(c.ctrls)-1]
	c.ctrls = c.ctrls[:len(c.ctrls)-1]
	if fr.saved != nil {
		// Free for the next if; nothing below snapshots before the
		// last restore from it.
		c.free = append(c.free, fr.saved)
	}
	live := !fr.unreachable
	if live {
		c.matPending()
	}

	switch {
	case fr.op == wasm.OpLoop:
		// No branches target a loop's end; fall-through state flows out
		// unchanged, preserving register and constant knowledge.
		if !live {
			c.resetState(fr.height+len(fr.endTypes), fr.endTypes)
			if len(c.ctrls) > 0 {
				c.ctrls[len(c.ctrls)-1].unreachable = true
			}
		}

	case fr.op == wasm.OpIf && !fr.hasElse:
		if fr.elseLabel < 0 {
			// The if itself was in unreachable code (no labels, no
			// edges); the merge stays unreachable.
			c.resetState(fr.height+len(fr.endTypes), fr.endTypes)
			if len(c.ctrls) > 0 {
				c.ctrls[len(c.ctrls)-1].unreachable = true
			}
			return
		}
		// The false edge lands here carrying the snapshot state.
		if live {
			c.flush()
			c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, fr.endLabel)
		}
		c.asm.Bind(fr.elseLabel)
		c.st.restore(fr.saved)
		if fr.ifReachable {
			c.flush()
		}
		c.asm.Bind(fr.endLabel)
		c.resetState(fr.height+len(fr.endTypes), fr.endTypes)

	case fr.op == 0:
		// Function end.
		if live {
			if fr.branched {
				c.flush()
				c.asm.Bind(fr.endLabel)
				c.epilogueReturn(true)
			} else {
				c.epilogueReturn(false)
			}
		} else if fr.branched {
			c.asm.Bind(fr.endLabel)
			c.st.h = fr.height + len(fr.endTypes)
			c.epilogueReturn(true)
		}

	default: // block, or if with else
		if live && fr.branched {
			c.flush()
		}
		if fr.endLabel >= 0 && (fr.branched || !live) {
			c.asm.Bind(fr.endLabel)
		} else if fr.endLabel >= 0 && live && !fr.branched {
			// Label allocated but never referenced; bind to keep the
			// assembler consistent (no fixups pending).
			c.asm.Bind(fr.endLabel)
		}
		if fr.branched || !live {
			c.resetState(fr.height+len(fr.endTypes), fr.endTypes)
		}
		// Pure fall-through keeps the abstract state (registers and
		// constants survive the block).
	}
}

// compileBrTable compiles a br_table over depths, the default last.
func (c *compiler) compileBrTable(depths []uint32) {
	idx := c.pop()
	ridx := c.ensureReg(&idx, c.nLocals+c.st.h)
	c.flush()

	def := c.frameAt(depths[len(depths)-1])
	arity := def.labelArity()

	labels := make([]int, len(depths))
	type tramp struct {
		label int
		depth uint32
	}
	var tramps []tramp
	for i, d := range depths {
		fr := c.frameAt(d)
		fr.branched = true
		direct := fr.endLabel
		if fr.op == wasm.OpLoop {
			direct = fr.headerLabel
		}
		if arity == 0 || c.st.h-1-arity == fr.height {
			// Values (if any) are already in place after the flush...
			// except transfers with matching height still need memory
			// residency, which flush guaranteed.
			labels[i] = direct
		} else {
			l := c.asm.NewLabel()
			labels[i] = l
			tramps = append(tramps, tramp{l, d})
		}
	}
	tidx := c.asm.NewTable(labels)
	c.asm.Emit(mach.Instr{Op: mach.OBrTable, A: int32(tidx), B: int32(ridx)})
	c.release(&idx)

	// The popped index is gone; transferred values are the top `arity`.
	for _, t := range tramps {
		c.asm.Bind(t.label)
		fr := c.frameAt(t.depth)
		c.transferTo(fr.height, arity)
		target := fr.endLabel
		if fr.op == wasm.OpLoop {
			target = fr.headerLabel
		}
		c.asm.EmitBranch(mach.Instr{Op: mach.OJump}, target)
	}
	c.setUnreachable()
}

// skipInstr compiles nothing for an instruction in unreachable code,
// only tracking control nesting.
func (c *compiler) skipInstr(op wasm.Opcode) {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		c.ctrls = append(c.ctrls, ctrl{
			op: op, unreachable: true, ifReachable: false,
			endLabel: -1, elseLabel: -1, headerLabel: -1,
			height: c.st.h,
		})
	case wasm.OpElse:
		fr := &c.ctrls[len(c.ctrls)-1]
		fr.hasElse = true
		if fr.ifReachable {
			// Reachable if whose then-arm ended unreachable: the else
			// arm is live again.
			c.asm.Bind(fr.elseLabel)
			c.st.restore(fr.saved)
			fr.unreachable = false
		}
	case wasm.OpEnd:
		c.compileEnd()
	}
}
