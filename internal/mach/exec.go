package mach

import (
	"encoding/binary"
	"math"

	"wizgo/internal/numx"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Run executes compiled code for a fresh call: arguments are already at
// slots[vfp:vfp+nparams] (tags stored by the caller), and the prologue
// instructions emitted by the compiler initialize declared locals.
func (c *Code) Run(ctx *rt.Context, f *rt.FuncInst, vfp int) (rt.Status, error) {
	if err := ctx.CheckStack(vfp, c.NumSlots, f.Idx); err != nil {
		return rt.Done, err
	}
	return c.run(ctx, f, vfp, 0)
}

// RunFrom enters compiled code at the checkpoint machine pc produced by
// an OSR request; the frame must be canonical (all values in the value
// stack), which is exactly the state the interpreter maintains.
func (c *Code) RunFrom(ctx *rt.Context, f *rt.FuncInst, vfp, machPC int) (rt.Status, error) {
	return c.run(ctx, f, vfp, machPC)
}

func (c *Code) run(ctx *rt.Context, f *rt.FuncInst, vfp, entry int) (rt.Status, error) {
	frameIdx := ctx.PushFrame(rt.FrameInfo{
		Kind: rt.FrameJIT, Func: f, VFP: vfp, SP: vfp + len(c.LocalTypes),
	})
	ctx.Depth++
	defer func() {
		ctx.Depth--
		ctx.PopFrame()
	}()
	at := resume{pc: entry}
	for {
		if status, err := c.exec(ctx, f, vfp, frameIdx, &at); status != restack {
			return status, err
		}
	}
}

// restack is exec's private status: a callee grew the value stack, so
// the slots and tags exec holds are stale and run must re-enter it.
const restack rt.Status = 0xFF

// resume is where exec starts, and where it stopped on restack: the
// machine pc and the register file, which is private to the activation
// — values compiled code keeps in registers across the call exist
// nowhere else. regs is nil on a fresh entry (all zero) and allocated on
// the restack path only.
type resume struct {
	pc   int
	regs *[NumRegs]uint64
}

// exec is the dispatch loop. slots and tags are read once and never
// reassigned (reloading them after a call, even on a path that never
// runs, measurably slows the whole switch); when a callee grew the stack
// exec instead stores where it stopped in *at and returns restack.
func (c *Code) exec(ctx *rt.Context, f *rt.FuncInst, vfp, frameIdx int, at *resume) (rt.Status, error) {
	var regs [NumRegs]uint64
	if at.regs != nil {
		regs = *at.regs
	}
	slots := ctx.Stack.Slots
	tags := ctx.Stack.Tags
	inst := ctx.Inst
	mem := inst.Memory
	code := c.Instrs
	counting := ctx.CountStats
	// Hoisted so the per-checkpoint poll is a register test + one atomic
	// load, not a ctx field reload per loop iteration.
	interrupt := ctx.Interrupt

	pc := at.pc
	for {
		in := &code[pc]
		if counting {
			ctx.Stats.MachOps++
		}
		switch in.Op {
		case ONop:
		case OConst:
			regs[in.A] = in.Imm
		case OMov:
			regs[in.A] = regs[in.B]
		case OLoadSlot:
			regs[in.A] = slots[vfp+int(in.Imm)]
		case OStoreSlot:
			slots[vfp+int(in.Imm)] = regs[in.B]
		case OStoreSlotConst:
			slots[vfp+int(in.A)] = in.Imm
		case OStoreTag:
			if tags != nil {
				tags[vfp+int(in.Imm)] = wasm.Tag(in.A)
			}
		case OSelect:
			if uint32(regs[in.C]) == 0 {
				regs[in.A] = regs[in.B]
			}

		case OJump:
			pc = int(in.Imm)
			continue
		case OBrIfZero:
			if uint32(regs[in.B]) == 0 {
				pc = int(in.Imm)
				continue
			}
		case OBrIfNonZero:
			if uint32(regs[in.B]) != 0 {
				pc = int(in.Imm)
				continue
			}
		case OBrTable:
			t := c.Tables[in.A]
			idx := uint32(regs[in.B])
			if int(idx) >= len(t) {
				idx = uint32(len(t) - 1)
			}
			pc = int(t[idx])
			continue

		case OBrI32Eq:
			if uint32(regs[in.B]) == uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32Ne:
			if uint32(regs[in.B]) != uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LtS:
			if int32(regs[in.B]) < int32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LtU:
			if uint32(regs[in.B]) < uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GtS:
			if int32(regs[in.B]) > int32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GtU:
			if uint32(regs[in.B]) > uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LeS:
			if int32(regs[in.B]) <= int32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LeU:
			if uint32(regs[in.B]) <= uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GeS:
			if int32(regs[in.B]) >= int32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GeU:
			if uint32(regs[in.B]) >= uint32(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}

		case OBrI32EqImm:
			if uint32(regs[in.B]) == uint32(in.C) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32NeImm:
			if uint32(regs[in.B]) != uint32(in.C) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LtSImm:
			if int32(regs[in.B]) < in.C {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LtUImm:
			if uint32(regs[in.B]) < uint32(in.C) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GtSImm:
			if int32(regs[in.B]) > in.C {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GtUImm:
			if uint32(regs[in.B]) > uint32(in.C) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LeSImm:
			if int32(regs[in.B]) <= in.C {
				pc = int(in.Imm)
				continue
			}
		case OBrI32LeUImm:
			if uint32(regs[in.B]) <= uint32(in.C) {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GeSImm:
			if int32(regs[in.B]) >= in.C {
				pc = int(in.Imm)
				continue
			}
		case OBrI32GeUImm:
			if uint32(regs[in.B]) >= uint32(in.C) {
				pc = int(in.Imm)
				continue
			}

		case OBrI64Eq:
			if regs[in.B] == regs[in.C] {
				pc = int(in.Imm)
				continue
			}
		case OBrI64Ne:
			if regs[in.B] != regs[in.C] {
				pc = int(in.Imm)
				continue
			}
		case OBrI64LtS:
			if int64(regs[in.B]) < int64(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI64LtU:
			if regs[in.B] < regs[in.C] {
				pc = int(in.Imm)
				continue
			}
		case OBrI64GtS:
			if int64(regs[in.B]) > int64(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI64GtU:
			if regs[in.B] > regs[in.C] {
				pc = int(in.Imm)
				continue
			}
		case OBrI64LeS:
			if int64(regs[in.B]) <= int64(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI64LeU:
			if regs[in.B] <= regs[in.C] {
				pc = int(in.Imm)
				continue
			}
		case OBrI64GeS:
			if int64(regs[in.B]) >= int64(regs[in.C]) {
				pc = int(in.Imm)
				continue
			}
		case OBrI64GeU:
			if regs[in.B] >= regs[in.C] {
				pc = int(in.Imm)
				continue
			}

		case OCall:
			callee := inst.Funcs[in.A]
			argBase := vfp + int(in.B)
			fr := &ctx.Frames[frameIdx]
			fr.SP = argBase + len(callee.Type.Params)
			fr.PC = int(c.WasmPC[pc])
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			if len(ctx.Stack.Slots) != len(slots) {
				saved := regs
				*at = resume{pc: pc + 1, regs: &saved}
				return restack, nil
			}
		case OCallIndirect:
			elem := uint32(regs[in.C])
			table := inst.Tables[in.Imm]
			if int(elem) >= len(table.Elems) {
				return rt.Done, c.trapAt(rt.TrapOOBTable, f, pc)
			}
			handle := table.Elems[elem]
			if handle == wasm.NullRef {
				return rt.Done, c.trapAt(rt.TrapNullFunc, f, pc)
			}
			if handle > uint64(len(table.Funcs)) {
				// Dangling handle (e.g. a host-built table without owner
				// resolution): trap, never index out of range.
				return rt.Done, c.trapAt(rt.TrapNullFunc, f, pc)
			}
			// Handles resolve in the table OWNER's function index space,
			// so an imported table dispatches to the exporter's functions.
			callee := table.Funcs[handle-1]
			if !callee.Type.Equal(inst.Module.Types[in.A]) {
				return rt.Done, c.trapAt(rt.TrapIndirectSigMismatch, f, pc)
			}
			argBase := vfp + int(in.B)
			fr := &ctx.Frames[frameIdx]
			fr.SP = argBase + len(callee.Type.Params)
			fr.PC = int(c.WasmPC[pc])
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			if len(ctx.Stack.Slots) != len(slots) {
				saved := regs
				*at = resume{pc: pc + 1, regs: &saved}
				return restack, nil
			}
		case OReturn:
			return rt.Done, nil

		case OI32Add:
			regs[in.A] = uint64(uint32(regs[in.B]) + uint32(regs[in.C]))
		case OI32Sub:
			regs[in.A] = uint64(uint32(regs[in.B]) - uint32(regs[in.C]))
		case OI32Mul:
			regs[in.A] = uint64(uint32(regs[in.B]) * uint32(regs[in.C]))
		case OI32DivS:
			a, b := int32(regs[in.B]), int32(regs[in.C])
			if b == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			if a == math.MinInt32 && b == -1 {
				return rt.Done, c.trapAt(rt.TrapIntOverflow, f, pc)
			}
			regs[in.A] = uint64(uint32(a / b))
		case OI32DivU:
			if uint32(regs[in.C]) == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			regs[in.A] = uint64(uint32(regs[in.B]) / uint32(regs[in.C]))
		case OI32RemS:
			a, b := int32(regs[in.B]), int32(regs[in.C])
			if b == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			if a == math.MinInt32 && b == -1 {
				regs[in.A] = 0
			} else {
				regs[in.A] = uint64(uint32(a % b))
			}
		case OI32RemU:
			if uint32(regs[in.C]) == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			regs[in.A] = uint64(uint32(regs[in.B]) % uint32(regs[in.C]))
		case OI32And:
			regs[in.A] = uint64(uint32(regs[in.B]) & uint32(regs[in.C]))
		case OI32Or:
			regs[in.A] = uint64(uint32(regs[in.B]) | uint32(regs[in.C]))
		case OI32Xor:
			regs[in.A] = uint64(uint32(regs[in.B]) ^ uint32(regs[in.C]))
		case OI32Shl:
			regs[in.A] = uint64(uint32(regs[in.B]) << (uint32(regs[in.C]) & 31))
		case OI32ShrS:
			regs[in.A] = uint64(uint32(int32(regs[in.B]) >> (uint32(regs[in.C]) & 31)))
		case OI32ShrU:
			regs[in.A] = uint64(uint32(regs[in.B]) >> (uint32(regs[in.C]) & 31))

		case OI32AddImm:
			regs[in.A] = uint64(uint32(regs[in.B]) + uint32(in.Imm))
		case OI32SubImm:
			regs[in.A] = uint64(uint32(regs[in.B]) - uint32(in.Imm))
		case OI32MulImm:
			regs[in.A] = uint64(uint32(regs[in.B]) * uint32(in.Imm))
		case OI32AndImm:
			regs[in.A] = uint64(uint32(regs[in.B]) & uint32(in.Imm))
		case OI32OrImm:
			regs[in.A] = uint64(uint32(regs[in.B]) | uint32(in.Imm))
		case OI32XorImm:
			regs[in.A] = uint64(uint32(regs[in.B]) ^ uint32(in.Imm))
		case OI32ShlImm:
			regs[in.A] = uint64(uint32(regs[in.B]) << (uint32(in.Imm) & 31))
		case OI32ShrSImm:
			regs[in.A] = uint64(uint32(int32(regs[in.B]) >> (uint32(in.Imm) & 31)))
		case OI32ShrUImm:
			regs[in.A] = uint64(uint32(regs[in.B]) >> (uint32(in.Imm) & 31))

		case OI64Add:
			regs[in.A] = regs[in.B] + regs[in.C]
		case OI64Sub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case OI64Mul:
			regs[in.A] = regs[in.B] * regs[in.C]
		case OI64DivS:
			a, b := int64(regs[in.B]), int64(regs[in.C])
			if b == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			if a == math.MinInt64 && b == -1 {
				return rt.Done, c.trapAt(rt.TrapIntOverflow, f, pc)
			}
			regs[in.A] = uint64(a / b)
		case OI64DivU:
			if regs[in.C] == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			regs[in.A] = regs[in.B] / regs[in.C]
		case OI64RemS:
			a, b := int64(regs[in.B]), int64(regs[in.C])
			if b == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			if a == math.MinInt64 && b == -1 {
				regs[in.A] = 0
			} else {
				regs[in.A] = uint64(a % b)
			}
		case OI64RemU:
			if regs[in.C] == 0 {
				return rt.Done, c.trapAt(rt.TrapDivByZero, f, pc)
			}
			regs[in.A] = regs[in.B] % regs[in.C]
		case OI64And:
			regs[in.A] = regs[in.B] & regs[in.C]
		case OI64Or:
			regs[in.A] = regs[in.B] | regs[in.C]
		case OI64Xor:
			regs[in.A] = regs[in.B] ^ regs[in.C]
		case OI64Shl:
			regs[in.A] = regs[in.B] << (regs[in.C] & 63)
		case OI64ShrS:
			regs[in.A] = uint64(int64(regs[in.B]) >> (regs[in.C] & 63))
		case OI64ShrU:
			regs[in.A] = regs[in.B] >> (regs[in.C] & 63)

		case OI64AddImm:
			regs[in.A] = regs[in.B] + in.Imm
		case OI64SubImm:
			regs[in.A] = regs[in.B] - in.Imm
		case OI64MulImm:
			regs[in.A] = regs[in.B] * in.Imm
		case OI64AndImm:
			regs[in.A] = regs[in.B] & in.Imm
		case OI64OrImm:
			regs[in.A] = regs[in.B] | in.Imm
		case OI64XorImm:
			regs[in.A] = regs[in.B] ^ in.Imm
		case OI64ShlImm:
			regs[in.A] = regs[in.B] << (in.Imm & 63)
		case OI64ShrSImm:
			regs[in.A] = uint64(int64(regs[in.B]) >> (in.Imm & 63))
		case OI64ShrUImm:
			regs[in.A] = regs[in.B] >> (in.Imm & 63)

		case OI32Eqz:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) == 0)
		case OI32Eq:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) == uint32(regs[in.C]))
		case OI32Ne:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) != uint32(regs[in.C]))
		case OI32LtS:
			regs[in.A] = numx.B2u(int32(regs[in.B]) < int32(regs[in.C]))
		case OI32LtU:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) < uint32(regs[in.C]))
		case OI32GtS:
			regs[in.A] = numx.B2u(int32(regs[in.B]) > int32(regs[in.C]))
		case OI32GtU:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) > uint32(regs[in.C]))
		case OI32LeS:
			regs[in.A] = numx.B2u(int32(regs[in.B]) <= int32(regs[in.C]))
		case OI32LeU:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) <= uint32(regs[in.C]))
		case OI32GeS:
			regs[in.A] = numx.B2u(int32(regs[in.B]) >= int32(regs[in.C]))
		case OI32GeU:
			regs[in.A] = numx.B2u(uint32(regs[in.B]) >= uint32(regs[in.C]))

		case OI64Eqz:
			regs[in.A] = numx.B2u(regs[in.B] == 0)
		case OI64Eq:
			regs[in.A] = numx.B2u(regs[in.B] == regs[in.C])
		case OI64Ne:
			regs[in.A] = numx.B2u(regs[in.B] != regs[in.C])
		case OI64LtS:
			regs[in.A] = numx.B2u(int64(regs[in.B]) < int64(regs[in.C]))
		case OI64LtU:
			regs[in.A] = numx.B2u(regs[in.B] < regs[in.C])
		case OI64GtS:
			regs[in.A] = numx.B2u(int64(regs[in.B]) > int64(regs[in.C]))
		case OI64GtU:
			regs[in.A] = numx.B2u(regs[in.B] > regs[in.C])
		case OI64LeS:
			regs[in.A] = numx.B2u(int64(regs[in.B]) <= int64(regs[in.C]))
		case OI64LeU:
			regs[in.A] = numx.B2u(regs[in.B] <= regs[in.C])
		case OI64GeS:
			regs[in.A] = numx.B2u(int64(regs[in.B]) >= int64(regs[in.C]))
		case OI64GeU:
			regs[in.A] = numx.B2u(regs[in.B] >= regs[in.C])

		case OF32Eq:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) == mf32(regs[in.C]))
		case OF32Ne:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) != mf32(regs[in.C]))
		case OF32Lt:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) < mf32(regs[in.C]))
		case OF32Gt:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) > mf32(regs[in.C]))
		case OF32Le:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) <= mf32(regs[in.C]))
		case OF32Ge:
			regs[in.A] = numx.B2u(mf32(regs[in.B]) >= mf32(regs[in.C]))
		case OF64Eq:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) == mf64(regs[in.C]))
		case OF64Ne:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) != mf64(regs[in.C]))
		case OF64Lt:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) < mf64(regs[in.C]))
		case OF64Gt:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) > mf64(regs[in.C]))
		case OF64Le:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) <= mf64(regs[in.C]))
		case OF64Ge:
			regs[in.A] = numx.B2u(mf64(regs[in.B]) >= mf64(regs[in.C]))

		case OF32Add:
			regs[in.A] = mrf32(mf32(regs[in.B]) + mf32(regs[in.C]))
		case OF32Sub:
			regs[in.A] = mrf32(mf32(regs[in.B]) - mf32(regs[in.C]))
		case OF32Mul:
			regs[in.A] = mrf32(mf32(regs[in.B]) * mf32(regs[in.C]))
		case OF32Div:
			regs[in.A] = mrf32(mf32(regs[in.B]) / mf32(regs[in.C]))
		case OF32Min:
			regs[in.A] = mrf32(numx.FMin32(mf32(regs[in.B]), mf32(regs[in.C])))
		case OF32Max:
			regs[in.A] = mrf32(numx.FMax32(mf32(regs[in.B]), mf32(regs[in.C])))
		case OF32Neg:
			regs[in.A] = regs[in.B] ^ (1 << 31)
		case OF32Abs:
			regs[in.A] = regs[in.B] &^ (1 << 31)
		case OF32Sqrt:
			regs[in.A] = mrf32(float32(math.Sqrt(float64(mf32(regs[in.B])))))

		case OF64Add:
			regs[in.A] = mrf64(mf64(regs[in.B]) + mf64(regs[in.C]))
		case OF64Sub:
			regs[in.A] = mrf64(mf64(regs[in.B]) - mf64(regs[in.C]))
		case OF64Mul:
			regs[in.A] = mrf64(mf64(regs[in.B]) * mf64(regs[in.C]))
		case OF64Div:
			regs[in.A] = mrf64(mf64(regs[in.B]) / mf64(regs[in.C]))
		case OF64Min:
			regs[in.A] = mrf64(numx.FMin64(mf64(regs[in.B]), mf64(regs[in.C])))
		case OF64Max:
			regs[in.A] = mrf64(numx.FMax64(mf64(regs[in.B]), mf64(regs[in.C])))
		case OF64Neg:
			regs[in.A] = regs[in.B] ^ (1 << 63)
		case OF64Abs:
			regs[in.A] = regs[in.B] &^ (1 << 63)
		case OF64Sqrt:
			regs[in.A] = mrf64(math.Sqrt(mf64(regs[in.B])))

		case OI32WrapI64:
			regs[in.A] = uint64(uint32(regs[in.B]))
		case OI64ExtendI32S:
			regs[in.A] = uint64(int64(int32(regs[in.B])))
		case OI64ExtendI32U:
			regs[in.A] = uint64(uint32(regs[in.B]))
		case OF64ConvertI32S:
			regs[in.A] = mrf64(float64(int32(regs[in.B])))
		case OF64ConvertI32U:
			regs[in.A] = mrf64(float64(uint32(regs[in.B])))
		case OF64ConvertI64S:
			regs[in.A] = mrf64(float64(int64(regs[in.B])))
		case OF64ConvertI64U:
			regs[in.A] = mrf64(float64(regs[in.B]))
		case OF32ConvertI32S:
			regs[in.A] = mrf32(float32(int32(regs[in.B])))
		case OF32DemoteF64:
			regs[in.A] = mrf32(float32(mf64(regs[in.B])))
		case OF64PromoteF32:
			regs[in.A] = mrf64(float64(mf32(regs[in.B])))

		case OI32TruncF64S:
			v, k := numx.TruncToI32S(mf64(regs[in.B]))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(uint32(v))
		case OI32TruncF64U:
			v, k := numx.TruncToI32U(mf64(regs[in.B]))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(v)
		case OI64TruncF64S:
			v, k := numx.TruncToI64S(mf64(regs[in.B]))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(v)
		case OI64TruncF64U:
			v, k := numx.TruncToI64U(mf64(regs[in.B]))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = v
		case OI32TruncF32S:
			v, k := numx.TruncToI32S(float64(mf32(regs[in.B])))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(uint32(v))
		case OI32TruncF32U:
			v, k := numx.TruncToI32U(float64(mf32(regs[in.B])))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(v)
		case OI64TruncF32S:
			v, k := numx.TruncToI64S(float64(mf32(regs[in.B])))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = uint64(v)
		case OI64TruncF32U:
			v, k := numx.TruncToI64U(float64(mf32(regs[in.B])))
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = v

		case OGen1:
			v, k, ok := numx.EvalUn(wasm.Opcode(in.Imm), regs[in.B])
			if !ok {
				return rt.Done, c.trapAt(rt.TrapUnreachable, f, pc)
			}
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = v
		case OGen2:
			v, k, ok := numx.EvalBin(wasm.Opcode(in.Imm), regs[in.B], regs[in.C])
			if !ok {
				return rt.Done, c.trapAt(rt.TrapUnreachable, f, pc)
			}
			if k != rt.TrapNone {
				return rt.Done, c.trapAt(k, f, pc)
			}
			regs[in.A] = v

		case OLd8S32:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 1) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(uint32(int32(int8(mem.Data[int(addr)+int(uint32(in.Imm))]))))
		case OLd8U32, OLd8U64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 1) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(mem.Data[int(addr)+int(uint32(in.Imm))])
		case OLd16S32:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 2) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(uint32(int32(int16(binary.LittleEndian.Uint16(mem.Data[int(addr)+int(uint32(in.Imm)):])))))
		case OLd16U32, OLd16U64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 2) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(binary.LittleEndian.Uint16(mem.Data[int(addr)+int(uint32(in.Imm)):]))
		case OLd32:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(binary.LittleEndian.Uint32(mem.Data[int(addr)+int(uint32(in.Imm)):]))
		case OLd8S64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 1) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(int64(int8(mem.Data[int(addr)+int(uint32(in.Imm))])))
		case OLd16S64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 2) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(int64(int16(binary.LittleEndian.Uint16(mem.Data[int(addr)+int(uint32(in.Imm)):]))))
		case OLd32S64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(int64(int32(binary.LittleEndian.Uint32(mem.Data[int(addr)+int(uint32(in.Imm)):]))))
		case OLd32U64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = uint64(binary.LittleEndian.Uint32(mem.Data[int(addr)+int(uint32(in.Imm)):]))
		case OLd64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 8) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			regs[in.A] = binary.LittleEndian.Uint64(mem.Data[int(addr)+int(uint32(in.Imm)):])

		case OSt8:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 1) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(addr, uint32(in.Imm), 1)
			mem.Data[int(addr)+int(uint32(in.Imm))] = byte(regs[in.C])
		case OSt16:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 2) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(addr, uint32(in.Imm), 2)
			binary.LittleEndian.PutUint16(mem.Data[int(addr)+int(uint32(in.Imm)):], uint16(regs[in.C]))
		case OSt32:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(addr, uint32(in.Imm), 4)
			binary.LittleEndian.PutUint32(mem.Data[int(addr)+int(uint32(in.Imm)):], uint32(regs[in.C]))
		case OSt64:
			addr := uint32(regs[in.B])
			if !mem.InBounds(addr, uint32(in.Imm), 8) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(addr, uint32(in.Imm), 8)
			binary.LittleEndian.PutUint64(mem.Data[int(addr)+int(uint32(in.Imm)):], regs[in.C])

		case OMemSize:
			regs[in.A] = uint64(mem.Pages())
		case OMemGrow:
			regs[in.A] = uint64(uint32(mem.Grow(uint32(regs[in.B]))))
		case OMemCopy:
			dst, src, n := uint32(regs[in.A]), uint32(regs[in.B]), uint32(regs[in.C])
			if !mem.InBounds(dst, 0, int(n)) || !mem.InBounds(src, 0, int(n)) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(dst, 0, int(n))
			copy(mem.Data[dst:dst+n], mem.Data[src:src+n])
		case OMemFill:
			dst, val, n := uint32(regs[in.A]), byte(regs[in.B]), uint32(regs[in.C])
			if !mem.InBounds(dst, 0, int(n)) {
				return rt.Done, c.trapAt(rt.TrapOOBMemory, f, pc)
			}
			mem.Mark(dst, 0, int(n))
			for i := uint32(0); i < n; i++ {
				mem.Data[dst+i] = val
			}

		case OGlobalGet:
			regs[in.A] = inst.Globals[in.Imm].Bits
		case OGlobalSet:
			inst.Globals[in.Imm].Bits = regs[in.B]
			inst.Globals[in.Imm].Tag = wasm.Tag(in.C)

		case OTrap:
			return rt.Done, rt.NewTrap(rt.TrapKind(in.A), f.Idx, int(in.Imm))
		case OUnreachable:
			return rt.Done, c.trapAt(rt.TrapUnreachable, f, pc)

		case OCheckPoint:
			// Loop header with a canonical frame: the fuel charge, the
			// interruption point, the deopt point and the OSR entry —
			// predictable branches on checks compiled code already
			// executes per loop iteration. Fuel is charged FIRST: a
			// checkpoint that deopts or interrupts has still executed
			// this header arrival, and the interpreter resumes past the
			// loop opcode, so no tier charges it twice.
			if !ctx.FuelCheckpoint() {
				return rt.Done, c.trapAt(rt.TrapFuelExhausted, f, pc)
			}
			if interrupt != nil && interrupt.Get() {
				return rt.Done, c.trapAt(rt.TrapInterrupted, f, pc)
			}
			if c.Invalidated {
				fr := &ctx.Frames[frameIdx]
				fr.SP = vfp + int(in.A)
				fr.PC = int(in.Imm)
				ctx.Resume = *fr
				if counting {
					ctx.Stats.Deopts++
				}
				return rt.Deopt, nil
			}

		case OProbeFire:
			fr := ctx.Frames[frameIdx]
			fr.SP = vfp + int(in.A)
			fr.PC = int(in.Imm)
			f.Probes.FireAll(ctx, fr, int(in.Imm))
		case OProbeCounter:
			c.Counters[in.A].Count++
			if counting {
				ctx.Stats.ProbeFires++
			}
		case OProbeTos:
			c.TosProbes[in.A].FireTos(slots[vfp+int(in.Imm)])
			if counting {
				ctx.Stats.ProbeFires++
			}

		default:
			return rt.Done, c.trapAt(rt.TrapUnreachable, f, pc)
		}
		pc++
	}
}

func (c *Code) trapAt(kind rt.TrapKind, f *rt.FuncInst, machPC int) error {
	wasmPC := 0
	if machPC < len(c.WasmPC) {
		wasmPC = int(c.WasmPC[machPC])
	}
	return rt.NewTrap(kind, f.Idx, wasmPC)
}

func mf32(b uint64) float32  { return math.Float32frombits(uint32(b)) }
func mf64(b uint64) float64  { return math.Float64frombits(b) }
func mrf32(v float32) uint64 { return uint64(math.Float32bits(v)) }
func mrf64(v float64) uint64 { return math.Float64bits(v) }
