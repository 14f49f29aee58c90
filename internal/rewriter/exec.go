package rewriter

import (
	"encoding/binary"
	"math"

	"wizgo/internal/numx"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// Run executes a translated function: a stack machine over pre-decoded
// instructions. No tags are written (rewriting interpreters in the study
// do no precise GC), no LEB decoding happens, and branches jump to
// absolute indices — the concrete reasons this tier beats the in-place
// interpreter on execution time while losing on setup time.
func (c *Code) Run(ctx *rt.Context, f *rt.FuncInst, vfp int) (rt.Status, error) {
	if err := ctx.CheckStack(vfp, c.NumSlots, f.Idx); err != nil {
		return rt.Done, err
	}
	slots := ctx.Stack.Slots
	for i := c.NumParams; i < len(c.LocalTypes); i++ {
		slots[vfp+i] = 0
	}
	at := resume{sp: vfp + len(c.LocalTypes)}

	frameIdx := ctx.PushFrame(rt.FrameInfo{Kind: rt.FrameInterp, Func: f, VFP: vfp, SP: at.sp})
	ctx.Depth++
	defer func() {
		ctx.Depth--
		ctx.PopFrame()
	}()
	for {
		if status, err := c.exec(ctx, f, vfp, frameIdx, &at); status != restack {
			return status, err
		}
	}
}

// restack is exec's private status: a callee grew the value stack, so
// the slots exec holds are stale and Run must re-enter it.
const restack rt.Status = 0xFF

// resume is where exec starts, and where it stopped on restack.
type resume struct{ pc, sp int }

// exec is the dispatch loop. slots is read once and never reassigned
// (reloading it after a call, even on a path that never runs, measurably
// slows the whole switch); when a callee grew the stack exec instead
// stores where it stopped in *at and returns restack.
func (c *Code) exec(ctx *rt.Context, f *rt.FuncInst, vfp, frameIdx int, at *resume) (rt.Status, error) {
	slots := ctx.Stack.Slots
	inst := ctx.Inst
	mem := inst.Memory
	code := c.Instrs
	counting := ctx.CountStats
	// Hoisted so the back-edge poll is a register test + one atomic
	// load, not a ctx field reload.
	interrupt := ctx.Interrupt

	sp := at.sp
	pc := at.pc
	parkHoisted()

	trap := func(kind rt.TrapKind) error {
		return rt.NewTrap(kind, f.Idx, pc)
	}

	for {
		in := &code[pc]
		if counting {
			ctx.Stats.InterpOps++
		}
		switch in.Op {
		case opReturn:
			nres := c.NumResults
			copy(slots[vfp:vfp+nres], slots[sp-nres:sp])
			return rt.Done, nil
		case opFuel:
			// Loop-entry fuel checkpoint (sits before the header label,
			// so it runs on fall-in only).
			if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
				return rt.Done, trap(rt.TrapFuelExhausted)
			}
		case opBr:
			// Backward branches are loop back-edges: the interruption
			// point (the rewriter has no OSR counter, so the target
			// comparison is the equivalent branch).
			if int(in.Target) <= pc {
				if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
					return rt.Done, trap(rt.TrapFuelExhausted)
				}
				if interrupt != nil && interrupt.Get() {
					return rt.Done, trap(rt.TrapInterrupted)
				}
			}
			sp = transfer(slots, sp, int(in.A), int(in.B))
			pc = int(in.Target)
			continue
		case opBrIfNZ:
			sp--
			if uint32(slots[sp]) != 0 {
				if int(in.Target) <= pc {
					if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
						return rt.Done, trap(rt.TrapFuelExhausted)
					}
					if interrupt != nil && interrupt.Get() {
						return rt.Done, trap(rt.TrapInterrupted)
					}
				}
				sp = transfer(slots, sp, int(in.A), int(in.B))
				pc = int(in.Target)
				continue
			}
		case opBrIfZ:
			sp--
			if uint32(slots[sp]) == 0 {
				if int(in.Target) <= pc {
					if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
						return rt.Done, trap(rt.TrapFuelExhausted)
					}
					if interrupt != nil && interrupt.Get() {
						return rt.Done, trap(rt.TrapInterrupted)
					}
				}
				sp = transfer(slots, sp, int(in.A), int(in.B))
				pc = int(in.Target)
				continue
			}
		case opBrTableX:
			sp--
			t := c.Tables[in.A]
			idx := uint32(slots[sp])
			if int(idx) >= len(t) {
				idx = uint32(len(t) - 1)
			}
			// A br_table arm can be a loop back-edge too.
			if int(t[idx]) <= pc {
				if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
					return rt.Done, trap(rt.TrapFuelExhausted)
				}
				if interrupt != nil && interrupt.Get() {
					return rt.Done, trap(rt.TrapInterrupted)
				}
			}
			pc = int(t[idx])
			continue

		case wasm.OpNop:
		case wasm.OpUnreachable:
			return rt.Done, trap(rt.TrapUnreachable)

		case wasm.OpCall:
			callee := inst.Funcs[in.A]
			argBase := sp - len(callee.Type.Params)
			fr := &ctx.Frames[frameIdx]
			fr.SP = sp
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			sp = argBase + len(callee.Type.Results)
			if len(ctx.Stack.Slots) != len(slots) {
				*at = resume{pc: pc + 1, sp: sp}
				return restack, nil
			}
		case wasm.OpCallIndirect:
			sp--
			elem := uint32(slots[sp])
			table := inst.Tables[in.B]
			if int(elem) >= len(table.Elems) {
				return rt.Done, trap(rt.TrapOOBTable)
			}
			handle := table.Elems[elem]
			if handle == wasm.NullRef {
				return rt.Done, trap(rt.TrapNullFunc)
			}
			if handle > uint64(len(table.Funcs)) {
				// Dangling handle (e.g. a host-built table without owner
				// resolution): trap, never index out of range.
				return rt.Done, trap(rt.TrapNullFunc)
			}
			// Resolve in the table owner's function index space.
			callee := table.Funcs[handle-1]
			if !callee.Type.Equal(inst.Module.Types[in.A]) {
				return rt.Done, trap(rt.TrapIndirectSigMismatch)
			}
			argBase := sp - len(callee.Type.Params)
			fr := &ctx.Frames[frameIdx]
			fr.SP = sp
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			sp = argBase + len(callee.Type.Results)
			if len(ctx.Stack.Slots) != len(slots) {
				*at = resume{pc: pc + 1, sp: sp}
				return restack, nil
			}

		case wasm.OpLocalGet:
			slots[sp] = slots[vfp+int(in.A)]
			sp++
		case wasm.OpLocalSet:
			sp--
			slots[vfp+int(in.A)] = slots[sp]
		case wasm.OpLocalTee:
			slots[vfp+int(in.A)] = slots[sp-1]
		case wasm.OpGlobalGet:
			slots[sp] = inst.Globals[in.A].Bits
			sp++
		case wasm.OpGlobalSet:
			sp--
			inst.Globals[in.A].Bits = slots[sp]

		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			slots[sp] = in.Imm
			sp++

		case wasm.OpDrop:
			sp--
		case wasm.OpSelect:
			sp -= 2
			if uint32(slots[sp+1]) == 0 {
				slots[sp-1] = slots[sp]
			}
		case wasm.OpRefIsNull:
			if slots[sp-1] == wasm.NullRef {
				slots[sp-1] = 1
			} else {
				slots[sp-1] = 0
			}

		case wasm.OpMemorySize:
			slots[sp] = uint64(mem.Pages())
			sp++
		case wasm.OpMemoryGrow:
			slots[sp-1] = uint64(uint32(mem.Grow(uint32(slots[sp-1]))))
		case wasm.OpMemoryCopy:
			sp -= 3
			dst, src, n := uint32(slots[sp]), uint32(slots[sp+1]), uint32(slots[sp+2])
			if !mem.InBounds(dst, 0, int(n)) || !mem.InBounds(src, 0, int(n)) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(dst, 0, int(n))
			copy(mem.Data[dst:dst+n], mem.Data[src:src+n])
		case wasm.OpMemoryFill:
			sp -= 3
			dst, val, n := uint32(slots[sp]), byte(slots[sp+1]), uint32(slots[sp+2])
			if !mem.InBounds(dst, 0, int(n)) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(dst, 0, int(n))
			for i := uint32(0); i < n; i++ {
				mem.Data[dst+i] = val
			}

		// Hot inline arithmetic; everything else goes through the
		// shared scalar semantics below.
		case wasm.OpI32Add:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) + uint32(slots[sp]))
		case wasm.OpI32Sub:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) - uint32(slots[sp]))
		case wasm.OpI32Mul:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) * uint32(slots[sp]))
		case wasm.OpI32And:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) & uint32(slots[sp]))
		case wasm.OpI32Or:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) | uint32(slots[sp]))
		case wasm.OpI32Xor:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) ^ uint32(slots[sp]))
		case wasm.OpI32Shl:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) << (uint32(slots[sp]) & 31))
		case wasm.OpI32ShrU:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) >> (uint32(slots[sp]) & 31))
		case wasm.OpI32ShrS:
			sp--
			slots[sp-1] = uint64(uint32(int32(slots[sp-1]) >> (uint32(slots[sp]) & 31)))
		case wasm.OpI32Eq:
			sp--
			slots[sp-1] = numx.B2u(uint32(slots[sp-1]) == uint32(slots[sp]))
		case wasm.OpI32Ne:
			sp--
			slots[sp-1] = numx.B2u(uint32(slots[sp-1]) != uint32(slots[sp]))
		case wasm.OpI32LtS:
			sp--
			slots[sp-1] = numx.B2u(int32(slots[sp-1]) < int32(slots[sp]))
		case wasm.OpI32LtU:
			sp--
			slots[sp-1] = numx.B2u(uint32(slots[sp-1]) < uint32(slots[sp]))
		case wasm.OpI32GtS:
			sp--
			slots[sp-1] = numx.B2u(int32(slots[sp-1]) > int32(slots[sp]))
		case wasm.OpI32GeS:
			sp--
			slots[sp-1] = numx.B2u(int32(slots[sp-1]) >= int32(slots[sp]))
		case wasm.OpI32LeS:
			sp--
			slots[sp-1] = numx.B2u(int32(slots[sp-1]) <= int32(slots[sp]))
		case wasm.OpI32Eqz:
			slots[sp-1] = numx.B2u(uint32(slots[sp-1]) == 0)
		case wasm.OpI64Add:
			sp--
			slots[sp-1] += slots[sp]
		case wasm.OpI64Sub:
			sp--
			slots[sp-1] -= slots[sp]
		case wasm.OpI64Mul:
			sp--
			slots[sp-1] *= slots[sp]
		case wasm.OpF64Add:
			sp--
			slots[sp-1] = math.Float64bits(math.Float64frombits(slots[sp-1]) + math.Float64frombits(slots[sp]))
		case wasm.OpF64Sub:
			sp--
			slots[sp-1] = math.Float64bits(math.Float64frombits(slots[sp-1]) - math.Float64frombits(slots[sp]))
		case wasm.OpF64Mul:
			sp--
			slots[sp-1] = math.Float64bits(math.Float64frombits(slots[sp-1]) * math.Float64frombits(slots[sp]))
		case wasm.OpF64Div:
			sp--
			slots[sp-1] = math.Float64bits(math.Float64frombits(slots[sp-1]) / math.Float64frombits(slots[sp]))

		case wasm.OpI32Load:
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(binary.LittleEndian.Uint32(mem.Data[int(addr)+int(uint32(in.Imm)):]))
		case wasm.OpI64Load, wasm.OpF64Load:
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, uint32(in.Imm), 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = binary.LittleEndian.Uint64(mem.Data[int(addr)+int(uint32(in.Imm)):])
		case wasm.OpF32Load:
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(binary.LittleEndian.Uint32(mem.Data[int(addr)+int(uint32(in.Imm)):]))
		case wasm.OpI32Store, wasm.OpF32Store:
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, uint32(in.Imm), 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, uint32(in.Imm), 4)
			binary.LittleEndian.PutUint32(mem.Data[int(addr)+int(uint32(in.Imm)):], uint32(slots[sp+1]))
		case wasm.OpI64Store, wasm.OpF64Store:
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, uint32(in.Imm), 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, uint32(in.Imm), 8)
			binary.LittleEndian.PutUint64(mem.Data[int(addr)+int(uint32(in.Imm)):], slots[sp+1])

		default:
			// Remaining memory widths and numeric long tail.
			newSP, err := c.slowOp(in, slots, sp, mem, f, pc)
			if err != nil {
				return rt.Done, err
			}
			sp = newSP
		}
		pc++
	}
}

// parkHoisted is an empty call between exec's hoisted loads and its
// loop. A call leaves nothing in registers, so the allocator picks the
// loop header's register set from what the loop uses soonest (ten
// values) instead of inheriting all thirteen the prologue happened to
// end with — and every back-edge reloads the header's set. Without it
// exec_ms.rewriter read 1.16× the unsplit Run on host-bridge (bound
// 0.15); with it 0.99×.
//
//go:noinline
func parkHoisted() {}

// transfer moves the top val slots down past pop discarded slots.
func transfer(slots []uint64, sp, val, pop int) int {
	if pop > 0 {
		if val > 0 {
			copy(slots[sp-val-pop:sp-pop], slots[sp-val:sp])
		}
		sp -= pop
	}
	return sp
}

// slowOp executes the long tail: narrow loads/stores and generic
// numeric operations via the shared scalar semantics.
func (c *Code) slowOp(in *Instr, slots []uint64, sp int, mem *rt.Memory, f *rt.FuncInst, pc int) (int, error) {
	trap := func(kind rt.TrapKind) error {
		return rt.NewTrap(kind, f.Idx, pc)
	}
	op := in.Op
	if op.Imm() == wasm.ImmMem {
		params, results, _ := op.Sig()
		if len(results) > 0 { // load
			size := loadSize(op)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, uint32(in.Imm), size) {
				return sp, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = loadBits(op, mem.Data, int(addr)+int(uint32(in.Imm)))
			return sp, nil
		}
		_ = params
		sp -= 2
		size := storeSize(op)
		addr := uint32(slots[sp])
		if !mem.InBounds(addr, uint32(in.Imm), size) {
			return sp, trap(rt.TrapOOBMemory)
		}
		mem.Mark(addr, uint32(in.Imm), size)
		storeBits(op, mem.Data, int(addr)+int(uint32(in.Imm)), slots[sp+1])
		return sp, nil
	}

	params, _, ok := op.Sig()
	if !ok {
		return sp, trap(rt.TrapUnreachable)
	}
	switch len(params) {
	case 1:
		v, kind, ok := numx.EvalUn(op, slots[sp-1])
		if !ok {
			return sp, trap(rt.TrapUnreachable)
		}
		if kind != rt.TrapNone {
			return sp, trap(kind)
		}
		slots[sp-1] = v
	case 2:
		sp--
		v, kind, ok := numx.EvalBin(op, slots[sp-1], slots[sp])
		if !ok {
			return sp, trap(rt.TrapUnreachable)
		}
		if kind != rt.TrapNone {
			return sp, trap(kind)
		}
		slots[sp-1] = v
	default:
		return sp, trap(rt.TrapUnreachable)
	}
	return sp, nil
}

func loadSize(op wasm.Opcode) int {
	switch op {
	case wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI64Load8S, wasm.OpI64Load8U:
		return 1
	case wasm.OpI32Load16S, wasm.OpI32Load16U, wasm.OpI64Load16S, wasm.OpI64Load16U:
		return 2
	case wasm.OpI64Load32S, wasm.OpI64Load32U, wasm.OpI32Load, wasm.OpF32Load:
		return 4
	default:
		return 8
	}
}

func storeSize(op wasm.Opcode) int {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return 1
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return 2
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		return 4
	default:
		return 8
	}
}

func loadBits(op wasm.Opcode, data []byte, at int) uint64 {
	switch op {
	case wasm.OpI32Load8S:
		return uint64(uint32(int32(int8(data[at]))))
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return uint64(data[at])
	case wasm.OpI32Load16S:
		return uint64(uint32(int32(int16(binary.LittleEndian.Uint16(data[at:])))))
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return uint64(binary.LittleEndian.Uint16(data[at:]))
	case wasm.OpI64Load8S:
		return uint64(int64(int8(data[at])))
	case wasm.OpI64Load16S:
		return uint64(int64(int16(binary.LittleEndian.Uint16(data[at:]))))
	case wasm.OpI64Load32S:
		return uint64(int64(int32(binary.LittleEndian.Uint32(data[at:]))))
	case wasm.OpI64Load32U:
		return uint64(binary.LittleEndian.Uint32(data[at:]))
	default:
		return binary.LittleEndian.Uint64(data[at:])
	}
}

func storeBits(op wasm.Opcode, data []byte, at int, v uint64) {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		data[at] = byte(v)
	case wasm.OpI32Store16, wasm.OpI64Store16:
		binary.LittleEndian.PutUint16(data[at:], uint16(v))
	case wasm.OpI64Store32:
		binary.LittleEndian.PutUint32(data[at:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(data[at:], v)
	}
}
