package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/numx"
	"wizgo/internal/rt"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
)

// initialOperands is the operand-stack room a function starts with.
const initialOperands = 16

// flushExcept flushes all dirty slots except the top n operand slots
// (used when the top holds a condition about to be consumed).
func (c *compiler) flushExcept(n int) {
	limit := c.nLocals + c.st.h - n
	for i := 0; i < limit; i++ {
		av := &c.st.avals[i]
		if av.inMem || (i < c.nLocals && c.isPinned(i)) {
			continue
		}
		switch {
		case av.reg != noReg:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: int32(av.reg), Imm: uint64(i)})
		case av.isConst:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(i), Imm: av.konst})
		default:
			panic("spc: dirty slot with no location")
		}
		av.inMem = true
	}
}

// compile drives the validator's walk over the body and translates each
// instruction as the walk hands it over, already checked.
func (c *compiler) compile(w validate.Walker) (*mach.Code, error) {
	ft := c.m.Types[c.decl.TypeIdx]
	c.info = w.Info()
	c.nLocals = len(c.info.LocalTypes)
	// Zeroed slots in the recycled buffer (append-of-make extends in
	// place, without a temporary). The operand stack's height is not
	// known until the walk is done, so it grows as the walk goes (see
	// room).
	c.st.avals = append(c.st.avals[:0], make([]aval, c.nLocals+initialOperands)...)
	c.st.regs.limit = c.cfg.NumRegs

	c.analyzeLocals()
	c.prologue(ft)
	c.pinnedPrologue(len(ft.Params))

	c.ctrls = append(c.ctrls, ctrl{
		op:        0,
		endTypes:  ft.Results,
		endLabel:  c.asm.NewLabel(),
		elseLabel: -1, headerLabel: -1,
		ifReachable: true,
	})

	for {
		in, err := w.Next()
		if in == nil {
			if err != nil {
				return nil, err
			}
			break
		}
		c.opPC = in.PC
		c.asm.SetWasmPC(in.PC)
		c.instr(in)
	}

	code, err := c.asm.Finish()
	if err != nil {
		return nil, err
	}
	code.FuncIdx = c.fidx
	code.Name = c.m.FuncName(c.fidx)
	code.OSREntries = c.osrEntries
	code.Stackmaps = c.stackmaps
	code.Counters = c.counters
	code.TosProbes = c.tosProbes
	code.NumSlots = c.info.NumSlots()
	code.NumResults = len(ft.Results)
	code.NumParams = len(ft.Params)
	code.LocalTypes = c.info.LocalTypes
	return code, nil
}

// prologue initializes declared locals. With constant tracking, numeric
// locals begin life as abstract constant zero and cost no code at all
// (visible in Figure 1); reference locals are always stored so a GC scan
// before the first flush cannot read garbage through a ref tag.
func (c *compiler) prologue(ft wasm.FuncType) {
	for i, t := range c.info.LocalTypes {
		av := &c.st.avals[i]
		av.typ = t
		av.reg = noReg
		if i < len(ft.Params) {
			av.inMem = true
			av.tagFresh = true // parameter tags are stored by the caller
			continue
		}
		if c.cfg.TrackConsts && !t.IsRef() {
			av.isConst = true
			av.konst = 0
			av.inMem = false
		} else {
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(i), Imm: 0})
			av.inMem = true
		}
		switch c.cfg.Tags {
		case rt.TagsOnDemand, rt.TagsEager, rt.TagsEagerLocals:
			c.emitTag(i, t)
			av.tagFresh = true
		}
	}
}

// compileProbe emits the instrumentation site for a probed pc: the frame
// is made observable (flushed, tags synced), then either intrinsified
// probe instructions (optjit) or a runtime probe call (jit) follow.
func (c *compiler) compileProbe(pc int) {
	c.matPending()
	c.flush()
	c.syncTags()
	probes := c.probes.At(pc)
	if c.cfg.OptProbes {
		allIntrinsic := true
		for _, p := range probes {
			switch p.(type) {
			case *rt.CounterProbe:
			case rt.TosProbe:
			default:
				allIntrinsic = false
			}
		}
		if allIntrinsic {
			for _, p := range probes {
				switch pp := p.(type) {
				case *rt.CounterProbe:
					c.counters = append(c.counters, pp)
					c.asm.Emit(mach.Instr{Op: mach.OProbeCounter, A: int32(len(c.counters) - 1)})
				case rt.TosProbe:
					c.tosProbes = append(c.tosProbes, pp)
					c.asm.Emit(mach.Instr{
						Op: mach.OProbeTos, A: int32(len(c.tosProbes) - 1),
						Imm: uint64(c.top()),
					})
				}
			}
			return
		}
	}
	c.asm.Emit(mach.Instr{Op: mach.OProbeFire, A: int32(c.nLocals + c.st.h), Imm: uint64(pc)})
}

// epilogueReturn moves the top result values to the frame base, stores
// their tags (results are observable by the caller), and returns.
func (c *compiler) epilogueReturn(fromMemory bool) {
	nres := len(c.info.Results)
	for i := 0; i < nres; i++ {
		src := c.slotOf(c.st.h - nres + i)
		dst := i
		if fromMemory {
			if src != dst {
				c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: scratchReg, Imm: uint64(src)})
				c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: scratchReg, Imm: uint64(dst)})
			}
			continue
		}
		av := c.st.avals[src]
		switch {
		case av.reg != noReg:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: int32(av.reg), Imm: uint64(dst)})
		case av.isConst:
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlotConst, A: int32(dst), Imm: av.konst})
		case src != dst:
			c.asm.Emit(mach.Instr{Op: mach.OLoadSlot, A: scratchReg, Imm: uint64(src)})
			c.asm.Emit(mach.Instr{Op: mach.OStoreSlot, B: scratchReg, Imm: uint64(dst)})
		}
	}
	switch c.cfg.Tags {
	case rt.TagsOnDemand, rt.TagsLazy, rt.TagsEager, rt.TagsEagerOperands:
		for i := 0; i < nres; i++ {
			c.emitTag(i, c.info.Results[i])
		}
	}
	c.asm.Emit(mach.Instr{Op: mach.OReturn})
}

// recordStackmap captures the frame-relative slots holding references at
// a call site (MAP-feature compilers only). argSlots excludes the
// outgoing arguments, which the callee covers.
func (c *compiler) recordStackmap(pc, excludeTop int) {
	if !c.cfg.Stackmaps {
		return
	}
	if c.stackmaps == nil {
		c.stackmaps = make(map[int][]int32)
	}
	var refs []int32
	for i := 0; i < c.nLocals; i++ {
		if c.info.LocalTypes[i].IsRef() {
			refs = append(refs, int32(i))
		}
	}
	for i := 0; i < c.st.h-excludeTop; i++ {
		if c.st.avals[c.nLocals+i].typ.IsRef() {
			refs = append(refs, int32(c.nLocals+i))
		}
	}
	c.stackmaps[pc] = refs
}

// observableCall canonicalizes the frame for an outcall: values and
// stale tags go to the value stack, and for MAP compilers a stackmap is
// recorded. Registers are dropped afterwards by the caller (the callee
// clobbers them).
func (c *compiler) observableCall(pc, nargs int) {
	c.flush()
	c.syncTags()
	c.recordStackmap(pc, nargs)
}

func (c *compiler) setUnreachable() {
	fr := &c.ctrls[len(c.ctrls)-1]
	// Drop abstract operands above the frame height.
	for c.st.h > fr.height {
		v := c.pop()
		c.release(&v)
	}
	fr.unreachable = true
}

func (c *compiler) reachable() bool {
	return !c.ctrls[len(c.ctrls)-1].unreachable
}

// evalNumericConst folds a pure op over constants via the shared scalar
// semantics, guaranteeing fold/execute bit-equality.
func evalNumericConst(op wasm.Opcode, args ...uint64) (uint64, bool) {
	if !op.IsPure() {
		return 0, false
	}
	switch len(args) {
	case 1:
		v, trap, ok := numx.EvalUn(op, args[0])
		return v, ok && trap == rt.TrapNone
	case 2:
		v, trap, ok := numx.EvalBin(op, args[0], args[1])
		return v, ok && trap == rt.TrapNone
	}
	return 0, false
}
