package spc

import (
	"wizgo/internal/mach"
	"wizgo/internal/wasm"
)

// isFusableCmp reports whether op is an integer comparison the peephole
// can defer into a fused compare-and-branch, and its operand width.
func isFusableCmp(op wasm.Opcode) (wasm.ValueType, bool) {
	switch op {
	case wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
		wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU:
		return wasm.I32, true
	case wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS,
		wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU:
		return wasm.I64, true
	}
	return 0, false
}

// compileNumericOrMem handles loads and stores (offset is the memory
// access's) and the table-driven numeric instruction set.
func (c *compiler) compileNumericOrMem(op wasm.Opcode, offset uint64) {
	if op.Imm() == wasm.ImmMem {
		if mop, resT := loadForm(op); mop != 0 {
			c.compileLoad(mop, resT, offset)
			return
		}
		c.compileStore(storeForm(op), offset)
		return
	}
	// Every other opcode reaching here is a validated unary or binary
	// numeric instruction.
	params, results, _ := op.Sig()
	if len(params) == 1 {
		c.compileUn(op, results[0])
	} else {
		c.compileBin(op, results[0])
	}
}

func (c *compiler) compileLoad(mop mach.Op, resT wasm.ValueType, offset uint64) {
	addr := c.pop()
	aSlot := c.nLocals + c.st.h
	ra := c.ensureReg(&addr, aSlot)
	rd := c.destReg(&addr)
	c.releaseAll(&addr)
	c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(ra), Imm: offset})
	c.push(aval{typ: resT, reg: rd})
}

func (c *compiler) compileStore(mop mach.Op, offset uint64) {
	val := c.pop()
	vSlot := c.nLocals + c.st.h
	rv := c.ensureReg(&val, vSlot)
	addr := c.pop()
	aSlot := c.nLocals + c.st.h
	ra := c.ensureReg(&addr, aSlot)
	c.asm.Emit(mach.Instr{Op: mop, B: int32(ra), C: int32(rv), Imm: offset})
	c.releaseAll(&val, &addr)
}

func (c *compiler) compileUn(op wasm.Opcode, resT wasm.ValueType) {
	v := c.pop()
	vSlot := c.nLocals + c.st.h

	if c.cfg.ConstFold && v.isConst {
		if folded, ok := evalNumericConst(op, v.konst); ok {
			c.release(&v)
			c.push(aval{typ: resT, reg: noReg, isConst: true, konst: folded})
			return
		}
	}

	// Defer eqz for compare-branch fusion.
	if c.cfg.Peephole && (op == wasm.OpI32Eqz || op == wasm.OpI64Eqz) {
		width := wasm.I32
		if op == wasm.OpI64Eqz {
			width = wasm.I64
		}
		rb := c.ensureReg(&v, vSlot)
		c.setPending(pendingCmp{op: op, rb: rb, operandB: width, resType: wasm.I32})
		v.reg = noReg // reference moved into the pending record
		c.st.h++      // the pending result occupies the slot abstractly
		c.st.avals[c.nLocals+c.st.h-1] = aval{typ: wasm.I32, reg: noReg}
		return
	}

	rv := c.ensureReg(&v, vSlot)
	rd := c.destReg(&v)
	c.releaseAll(&v)
	if mop, ok := unForm(op); ok {
		c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(rv)})
	} else {
		c.asm.Emit(mach.Instr{Op: mach.OGen1, A: int32(rd), B: int32(rv), Imm: uint64(op)})
	}
	c.push(aval{typ: resT, reg: rd})
}

func (c *compiler) compileBin(op wasm.Opcode, resT wasm.ValueType) {
	b := c.pop()
	bSlot := c.nLocals + c.st.h
	a := c.pop()
	aSlot := c.nLocals + c.st.h

	// Constant folding (feature "KF").
	if c.cfg.ConstFold && a.isConst && b.isConst {
		if folded, ok := evalNumericConst(op, a.konst, b.konst); ok {
			c.release(&a)
			c.release(&b)
			c.push(aval{typ: resT, reg: noReg, isConst: true, konst: folded})
			return
		}
	}

	// Strength reduction on identities (x+0, x*1, x|0, ...).
	if c.cfg.ConstFold && b.isConst && isIdentity(op, b.konst) {
		c.release(&b)
		c.push(a)
		return
	}

	// Deferred compare for branch fusion (peephole).
	if width, fusable := isFusableCmp(op); fusable && c.cfg.Peephole {
		if b.isConst && width == wasm.I32 && c.cfg.ISel {
			ra := c.ensureReg(&a, aSlot)
			a.reg = noReg
			c.setPending(pendingCmp{op: op, rb: ra, imm: b.konst, isImm: true,
				operandB: width, resType: wasm.I32})
		} else {
			ra := c.ensureReg(&a, aSlot)
			rb := c.ensureReg(&b, bSlot)
			a.reg = noReg
			b.reg = noReg
			c.setPending(pendingCmp{op: op, rb: ra, rc: rb, operandB: width,
				resType: wasm.I32})
		}
		c.st.h++
		c.st.avals[c.nLocals+c.st.h-1] = aval{typ: wasm.I32, reg: noReg}
		return
	}

	// Immediate-mode instruction selection (feature "ISEL").
	if c.cfg.ISel && b.isConst {
		if mop, ok := immForm(op); ok {
			ra := c.ensureReg(&a, aSlot)
			rd := c.destReg(&a)
			c.releaseAll(&a)
			c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(ra), Imm: b.konst})
			c.push(aval{typ: resT, reg: rd})
			return
		}
	}

	ra := c.ensureReg(&a, aSlot)
	rb := c.ensureReg(&b, bSlot)
	rd := c.destReg(&a, &b)
	c.releaseAll(&a, &b)
	if mop, ok := regForm(op); ok {
		c.asm.Emit(mach.Instr{Op: mop, A: int32(rd), B: int32(ra), C: int32(rb)})
	} else {
		c.asm.Emit(mach.Instr{Op: mach.OGen2, A: int32(rd), B: int32(ra), C: int32(rb), Imm: uint64(op)})
	}
	c.push(aval{typ: resT, reg: rd})
}

// isIdentity reports whether `x op k` is just x — the simple strength
// reductions the paper cites, e.g. (i32.add x (i32.const 0)).
func isIdentity(op wasm.Opcode, k uint64) bool {
	switch op {
	case wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr:
		return uint32(k) == 0
	case wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Or, wasm.OpI64Xor,
		wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr:
		return k == 0
	case wasm.OpI32Mul, wasm.OpI32DivS, wasm.OpI32DivU:
		return uint32(k) == 1
	case wasm.OpI64Mul, wasm.OpI64DivS, wasm.OpI64DivU:
		return k == 1
	case wasm.OpI32And:
		return uint32(k) == 0xFFFFFFFF
	case wasm.OpI64And:
		return k == 0xFFFFFFFFFFFFFFFF
	}
	return false
}
