package opt

import "wizgo/internal/mach"

// LVN performs local value numbering over emitted machine code: within
// each extended block (boundaries are branch targets and observation
// points) it tracks which register currently mirrors each value-stack
// slot and which constants registers hold, then deletes
//
//   - slot loads whose destination register already holds the slot value,
//   - slot stores that would rewrite an identical value, and
//   - constant loads into a register already holding that constant,
//
// remapping every branch target, table entry and OSR entry across the
// deletions. The pass is conservative: any instruction it does not
// understand invalidates all tracked state.
func LVN(c *mach.Code) *mach.Code {
	n := len(c.Instrs)
	isTarget := make([]bool, n+1)
	for _, in := range c.Instrs {
		if branchTarget(in.Op) {
			if t := int(in.Imm); t <= n {
				isTarget[t] = true
			}
		}
	}
	for _, tab := range c.Tables {
		for _, t := range tab {
			if int(t) <= n {
				isTarget[t] = true
			}
		}
	}
	for _, t := range c.OSREntries {
		if t <= n {
			isTarget[t] = true
		}
	}

	keep := make([]bool, n)
	nslots := c.NumSlots + 8
	slotReg := make([]int32, nslots) // slot -> reg+1 known to mirror it (0 = unknown)
	var regConst [mach.NumRegs]struct {
		known bool
		val   uint64
	}
	resetAll := func() {
		for i := range slotReg {
			slotReg[i] = 0
		}
		for i := range regConst {
			regConst[i].known = false
		}
	}
	clobberReg := func(r int32) {
		for s := 0; s < nslots; s++ {
			if slotReg[s] == r+1 {
				slotReg[s] = 0
			}
		}
		regConst[r].known = false
	}
	resetAll()

	for pc := 0; pc < n; pc++ {
		if isTarget[pc] {
			resetAll()
		}
		in := &c.Instrs[pc]
		keep[pc] = true
		switch in.Op {
		case mach.OLoadSlot:
			s := int(in.Imm)
			if s < nslots && slotReg[s] != 0 && !regConst[in.A].known {
				if slotReg[s] == in.A+1 {
					keep[pc] = false // register already mirrors the slot
					continue
				}
				// Another register mirrors the slot: forward it with a
				// move instead of touching memory (load forwarding).
				src := slotReg[s] - 1
				clobberReg(in.A)
				in.Op = mach.OMov
				in.B = src
				in.Imm = 0
				slotReg[s] = in.A + 1
				continue
			}
			clobberReg(in.A)
			if s < nslots {
				slotReg[s] = in.A + 1
			}
		case mach.OStoreSlot:
			s := int(in.Imm)
			if s < nslots {
				if slotReg[s] == in.B+1 {
					keep[pc] = false // slot already holds this value
					continue
				}
				slotReg[s] = in.B + 1
			}
		case mach.OStoreSlotConst, mach.OStoreTag:
			if in.Op == mach.OStoreSlotConst {
				s := int(in.A)
				if s < nslots {
					slotReg[s] = 0
				}
			}
		case mach.OConst:
			if regConst[in.A].known && regConst[in.A].val == in.Imm {
				keep[pc] = false
				continue
			}
			clobberReg(in.A)
			regConst[in.A].known = true
			regConst[in.A].val = in.Imm
		case mach.OMov:
			if in.A == in.B {
				keep[pc] = false
				continue
			}
			clobberReg(in.A)
		case mach.OCall, mach.OCallIndirect:
			// Callee frames live above the argument base: slots at or
			// beyond it change; lower slots and caller registers
			// survive (per-frame register files, callee-saved model).
			for s := int(in.B); s < nslots; s++ {
				slotReg[s] = 0
			}
		case mach.OProbeFire, mach.OProbeTos, mach.OProbeCounter, mach.OCheckPoint:
			resetAll()
		case mach.OJump, mach.OBrTable, mach.OReturn, mach.OTrap, mach.OUnreachable:
			// Control leaves; following code (if any) starts a block.
			resetAll()
		default:
			if branchTarget(in.Op) {
				// Conditional branch: fall-through state survives, but
				// registers written by nothing — no-op.
				continue
			}
			if writesA(in.Op) {
				clobberReg(in.A)
			}
		}
	}

	// Remap.
	newPC := make([]int32, n+1)
	cnt := int32(0)
	for i := 0; i < n; i++ {
		newPC[i] = cnt
		if keep[i] {
			cnt++
		}
	}
	newPC[n] = cnt

	out := &mach.Code{
		FuncIdx:    c.FuncIdx,
		Name:       c.Name,
		Instrs:     make([]mach.Instr, 0, cnt),
		WasmPC:     make([]int32, 0, cnt),
		OSREntries: make(map[int]int, len(c.OSREntries)),
		Tables:     make([][]int32, len(c.Tables)),
		Counters:   c.Counters,
		TosProbes:  c.TosProbes,
		Stackmaps:  c.Stackmaps,
		NumSlots:   c.NumSlots,
		NumResults: c.NumResults,
		NumParams:  c.NumParams,
		LocalTypes: c.LocalTypes,
	}
	for i := 0; i < n; i++ {
		if !keep[i] {
			continue
		}
		in := c.Instrs[i]
		if branchTarget(in.Op) {
			in.Imm = uint64(newPC[in.Imm])
		}
		out.Instrs = append(out.Instrs, in)
		out.WasmPC = append(out.WasmPC, c.WasmPC[i])
	}
	for ti, tab := range c.Tables {
		nt := make([]int32, len(tab))
		for i, t := range tab {
			nt[i] = newPC[t]
		}
		out.Tables[ti] = nt
	}
	for wpc, mpc := range c.OSREntries {
		out.OSREntries[wpc] = int(newPC[mpc])
	}
	out.CodeBytes = len(out.Instrs) * 4
	return out
}

// branchTarget reports whether the instruction's Imm is a machine pc.
func branchTarget(op mach.Op) bool {
	switch op {
	case mach.OJump, mach.OBrIfZero, mach.OBrIfNonZero,
		mach.OBrI32Eq, mach.OBrI32Ne, mach.OBrI32LtS, mach.OBrI32LtU,
		mach.OBrI32GtS, mach.OBrI32GtU, mach.OBrI32LeS, mach.OBrI32LeU,
		mach.OBrI32GeS, mach.OBrI32GeU,
		mach.OBrI32EqImm, mach.OBrI32NeImm, mach.OBrI32LtSImm, mach.OBrI32LtUImm,
		mach.OBrI32GtSImm, mach.OBrI32GtUImm, mach.OBrI32LeSImm, mach.OBrI32LeUImm,
		mach.OBrI32GeSImm, mach.OBrI32GeUImm,
		mach.OBrI64Eq, mach.OBrI64Ne, mach.OBrI64LtS, mach.OBrI64LtU,
		mach.OBrI64GtS, mach.OBrI64GtU, mach.OBrI64LeS, mach.OBrI64LeU,
		mach.OBrI64GeS, mach.OBrI64GeU:
		return true
	}
	return false
}

// writesA reports whether the instruction writes register A.
func writesA(op mach.Op) bool {
	switch op {
	case mach.ONop, mach.OStoreSlot, mach.OStoreSlotConst, mach.OStoreTag,
		mach.OSt8, mach.OSt16, mach.OSt32, mach.OSt64,
		mach.OGlobalSet, mach.OReturn, mach.OTrap, mach.OUnreachable,
		mach.OCall, mach.OCallIndirect, mach.OMemCopy, mach.OMemFill:
		return false
	}
	return true
}
