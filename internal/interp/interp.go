// Package interp implements the in-place interpreter (the analog of
// Wizard-INT, Titzer OOPSLA 2022). It executes Wasm bytecode directly —
// no rewriting, no translation — decoding immediates from the original
// bytes, resolving control flow through the validator-built sidetable,
// and emulating the value stack explicitly in memory, writing a value
// tag for every slot it pushes. Those properties are what make it the
// debugging/instrumentation tier: any probe can inspect any frame at any
// bytecode boundary, and the GC can scan its frames with no metadata.
//
// They are also what make it slow relative to compiled code: one
// dispatch, several memory operations and a tag store per Wasm
// instruction — the gap Figures 4 and 10 of the paper quantify.
package interp

import (
	"math"
	"math/bits"

	"wizgo/internal/numx"
	"wizgo/internal/rt"
	"wizgo/internal/wasm"
)

// TestHookOOBReadsZero, when true, makes an out-of-bounds i32.load
// return 0 instead of trapping — a deliberately planted soundness bug.
// The differential-testing suite (internal/difftest) sets it to prove
// the cross-tier oracle detects a single skipped bounds check and that
// the minimizer shrinks the diverging module to a handful of
// instructions. Never set outside tests; reads cost nothing on the
// trap path (the hook is only consulted after a bounds check failed).
var TestHookOOBReadsZero bool

// Entry describes where to (re-)enter a function: a fresh call starts at
// pc 0 with an empty operand stack; a tier-down (deopt) from compiled
// code resumes at an arbitrary bytecode boundary with the frame already
// canonical in the value stack.
type Entry struct {
	PC  int
	STP int
	SP  int // absolute operand stack top
}

// Call runs function f with arguments already placed at
// stack[argBase : argBase+nparams]. On success the results occupy
// stack[argBase : argBase+nresults]. Declared locals are zero-initialized
// and tagged. Mirrors the calling convention shared with compiled code.
func Call(ctx *rt.Context, f *rt.FuncInst, argBase int) (rt.Status, error) {
	info := f.Info
	if err := ctx.CheckStack(argBase, info.NumSlots(), f.Idx); err != nil {
		return rt.Done, err
	}
	slots := ctx.Stack.Slots
	tags := ctx.Stack.Tags
	// Zero and tag declared locals; parameter tags were stored by the
	// caller (the convention the paper notes for on-demand tagging).
	for i := info.NumParams; i < len(info.LocalTypes); i++ {
		slots[argBase+i] = 0
	}
	if tags != nil {
		for i, t := range info.LocalTypes {
			tags[argBase+i] = wasm.TagOf(t)
		}
	}
	return Run(ctx, f, argBase, Entry{SP: argBase + len(info.LocalTypes)})
}

// restack is run's private status: a callee grew the value stack, so
// the slots and tags run holds are stale and Run must re-enter it.
const restack rt.Status = 0xFF

// Run executes f's body from the given entry state with frame base vfp.
// It returns Done when the function returns (results copied down to
// vfp), or OSRUp when a hot loop back-edge requests tier-up (the frame
// is canonical; FrameInfo on ctx.Frames carries the resume pc).
func Run(ctx *rt.Context, f *rt.FuncInst, vfp int, entry Entry) (rt.Status, error) {
	frameIdx := ctx.PushFrame(rt.FrameInfo{
		Kind: rt.FrameInterp, Func: f, VFP: vfp, SP: entry.SP, PC: entry.PC,
	})
	ctx.Depth++
	defer func() {
		ctx.Depth--
		ctx.PopFrame()
	}()
	for {
		if status, err := run(ctx, f, vfp, frameIdx, &entry); status != restack {
			return status, err
		}
	}
}

// run is the dispatch loop. slots and tags are read once and never
// reassigned (reloading them after a call, even on a path that never
// runs, measurably slows the whole switch); when a callee grew the stack
// run instead stores where it stopped in *entry and returns restack.
func run(ctx *rt.Context, f *rt.FuncInst, vfp, frameIdx int, entry *Entry) (rt.Status, error) {
	body := f.Decl.Body
	info := f.Info
	st := info.Sidetable
	slots := ctx.Stack.Slots
	tags := ctx.Stack.Tags
	inst := ctx.Inst
	mem := inst.Memory

	ip := entry.PC
	stp := entry.STP
	sp := entry.SP
	nres := len(info.Results)

	probes := f.Probes
	counting := ctx.CountStats
	// Hoisted so the back-edge poll is a register test + one atomic
	// load, not a ctx field reload.
	interrupt := ctx.Interrupt

	trap := func(kind rt.TrapKind) error {
		return rt.NewTrap(kind, f.Idx, ip)
	}

	// syncFrame publishes ip/sp for stack walkers before observation
	// points (calls, probes, traps leave via trap()).
	syncFrame := func() {
		fr := &ctx.Frames[frameIdx]
		fr.SP = sp
		fr.PC = ip
	}

	for {
		opPC := ip
		op := body[ip]
		ip++

		if probes != nil && probes.HasAt(opPC) {
			syncFrame()
			ctx.Frames[frameIdx].PC = opPC
			probes.FireAll(ctx, ctx.Frames[frameIdx], opPC)
		}
		if counting {
			ctx.Stats.InterpOps++
		}

		switch wasm.Opcode(op) {
		case wasm.OpUnreachable:
			return rt.Done, trap(rt.TrapUnreachable)
		case wasm.OpNop:
		case wasm.OpBlock:
			_, ip = readBlockType(body, ip)
		case wasm.OpLoop:
			_, ip = readBlockType(body, ip)
			// Loop entry is a fuel checkpoint (ip is now the first body
			// pc — the same pc compiled tiers stamp on their header
			// checkpoint).
			if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
				return rt.Done, trap(rt.TrapFuelExhausted)
			}
		case wasm.OpIf:
			_, ip = readBlockType(body, ip)
			sp--
			if uint32(slots[sp]) != 0 {
				stp++ // fall into then-branch, skip the false edge entry
			} else {
				e := st[stp]
				ip, stp, sp = applyBranch(slots, tags, e, sp)
			}
		case wasm.OpElse:
			// Reached by falling out of the then-branch: jump past end.
			e := st[stp]
			ip, stp, sp = applyBranch(slots, tags, e, sp)
		case wasm.OpEnd:
			if ip == len(body) {
				// Function-level end: move results down to the frame base.
				copy(slots[vfp:vfp+nres], slots[sp-nres:sp])
				if tags != nil {
					copy(tags[vfp:vfp+nres], tags[sp-nres:sp])
				}
				return rt.Done, nil
			}
		case wasm.OpBr:
			_, ip = readU32(body, ip)
			e := st[stp]
			if int(e.TargetIP) <= opPC {
				// Backward branch: loop back-edge — a fuel checkpoint,
				// the tier-up point and the interruption point (extra
				// predictable branches on the path that already tests
				// for OSR). Fuel is charged first: a back-edge that
				// deopts or interrupts must still account its header
				// arrival.
				if ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
					return rt.Done, trap(rt.TrapFuelExhausted)
				}
				if interrupt != nil && interrupt.Get() {
					return rt.Done, trap(rt.TrapInterrupted)
				}
				if ctx.Invoke != nil && shouldOSR(ctx, f) {
					ip, stp, sp = applyBranch(slots, tags, e, sp)
					syncFrame()
					ctx.Frames[frameIdx].PC = ip
					ctx.Resume = ctx.Frames[frameIdx]
					return rt.OSRUp, nil
				}
			}
			ip, stp, sp = applyBranch(slots, tags, e, sp)
		case wasm.OpBrIf:
			_, ip = readU32(body, ip)
			sp--
			if uint32(slots[sp]) != 0 {
				e := st[stp]
				// Taken back-edge: charge the header arrival first.
				if int(e.TargetIP) <= opPC && ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
					return rt.Done, trap(rt.TrapFuelExhausted)
				}
				if int(e.TargetIP) <= opPC && interrupt != nil && interrupt.Get() {
					return rt.Done, trap(rt.TrapInterrupted)
				}
				if int(e.TargetIP) <= opPC && ctx.Invoke != nil && shouldOSR(ctx, f) {
					ip, stp, sp = applyBranch(slots, tags, e, sp)
					syncFrame()
					ctx.Frames[frameIdx].PC = ip
					ctx.Resume = ctx.Frames[frameIdx]
					return rt.OSRUp, nil
				}
				ip, stp, sp = applyBranch(slots, tags, e, sp)
			} else {
				stp++
			}
		case wasm.OpBrTable:
			var n uint32
			n, ip = readU32(body, ip)
			sp--
			idx := uint32(slots[sp])
			if idx > n {
				idx = n
			}
			e := st[stp+int(idx)]
			// A br_table arm can be a loop back-edge too: charge fuel
			// and poll the interrupt so cancellation cannot hang a
			// br_table-only loop.
			if int(e.TargetIP) <= opPC && ctx.Fuel > 0 && !ctx.FuelCheckpoint() {
				return rt.Done, trap(rt.TrapFuelExhausted)
			}
			if int(e.TargetIP) <= opPC && interrupt != nil && interrupt.Get() {
				return rt.Done, trap(rt.TrapInterrupted)
			}
			ip, stp, sp = applyBranch(slots, tags, e, sp)
		case wasm.OpReturn:
			copy(slots[vfp:vfp+nres], slots[sp-nres:sp])
			if tags != nil {
				copy(tags[vfp:vfp+nres], tags[sp-nres:sp])
			}
			return rt.Done, nil
		case wasm.OpCall:
			var fidx uint32
			fidx, ip = readU32(body, ip)
			callee := inst.Funcs[fidx]
			argBase := sp - len(callee.Type.Params)
			syncFrame()
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			sp = argBase + len(callee.Type.Results)
			if len(ctx.Stack.Slots) != len(slots) {
				*entry = Entry{PC: ip, STP: stp, SP: sp}
				return restack, nil
			}
		case wasm.OpCallIndirect:
			var typeIdx, tblIdx uint32
			typeIdx, ip = readU32(body, ip)
			tblIdx, ip = readU32(body, ip)
			sp--
			elem := uint32(slots[sp])
			table := inst.Tables[tblIdx]
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
			// Handles resolve in the table OWNER's function index space,
			// so an imported table dispatches to the exporter's functions.
			callee := table.Funcs[handle-1]
			if !callee.Type.Equal(inst.Module.Types[typeIdx]) {
				return rt.Done, trap(rt.TrapIndirectSigMismatch)
			}
			argBase := sp - len(callee.Type.Params)
			syncFrame()
			if err := ctx.Invoke(callee, argBase); err != nil {
				return rt.Done, err
			}
			sp = argBase + len(callee.Type.Results)
			if len(ctx.Stack.Slots) != len(slots) {
				*entry = Entry{PC: ip, STP: stp, SP: sp}
				return restack, nil
			}

		case wasm.OpDrop:
			sp--
		case wasm.OpSelect:
			sp -= 2
			if uint32(slots[sp+1]) == 0 {
				slots[sp-1] = slots[sp]
				if tags != nil {
					tags[sp-1] = tags[sp]
				}
			}
		case wasm.OpSelectT:
			var n uint32
			n, ip = readU32(body, ip)
			ip += int(n) // skip the type vector
			sp -= 2
			if uint32(slots[sp+1]) == 0 {
				slots[sp-1] = slots[sp]
				if tags != nil {
					tags[sp-1] = tags[sp]
				}
			}

		case wasm.OpLocalGet:
			var idx uint32
			idx, ip = readU32(body, ip)
			slots[sp] = slots[vfp+int(idx)]
			if tags != nil {
				tags[sp] = tags[vfp+int(idx)]
			}
			sp++
		case wasm.OpLocalSet:
			var idx uint32
			idx, ip = readU32(body, ip)
			sp--
			slots[vfp+int(idx)] = slots[sp]
			if tags != nil {
				tags[vfp+int(idx)] = tags[sp]
			}
		case wasm.OpLocalTee:
			var idx uint32
			idx, ip = readU32(body, ip)
			slots[vfp+int(idx)] = slots[sp-1]
			if tags != nil {
				tags[vfp+int(idx)] = tags[sp-1]
			}
		case wasm.OpGlobalGet:
			var idx uint32
			idx, ip = readU32(body, ip)
			g := inst.Globals[idx]
			slots[sp] = g.Bits
			if tags != nil {
				tags[sp] = g.Tag
			}
			sp++
		case wasm.OpGlobalSet:
			var idx uint32
			idx, ip = readU32(body, ip)
			sp--
			inst.Globals[idx].Bits = slots[sp]
			if tags != nil {
				inst.Globals[idx].Tag = tags[sp]
			}

		case wasm.OpI32Load:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 4) {
				if TestHookOOBReadsZero {
					// Planted bug (tests only): silently yield 0.
					slots[sp-1] = 0
					if tags != nil {
						tags[sp-1] = wasm.TagI32
					}
					break
				}
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(leU32(mem.Data, int(addr)+int(off)))
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpI64Load:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = leU64(mem.Data, int(addr)+int(off))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpF32Load:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(leU32(mem.Data, int(addr)+int(off)))
			if tags != nil {
				tags[sp-1] = wasm.TagF32
			}
		case wasm.OpF64Load:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = leU64(mem.Data, int(addr)+int(off))
			if tags != nil {
				tags[sp-1] = wasm.TagF64
			}
		case wasm.OpI32Load8S:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(uint32(int32(int8(mem.Data[int(addr)+int(off)]))))
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpI32Load8U:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(mem.Data[int(addr)+int(off)])
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpI32Load16S:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(uint32(int32(int16(leU16(mem.Data, int(addr)+int(off))))))
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpI32Load16U:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(leU16(mem.Data, int(addr)+int(off)))
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpI64Load8S:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(int64(int8(mem.Data[int(addr)+int(off)])))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI64Load8U:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(mem.Data[int(addr)+int(off)])
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI64Load16S:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(int64(int16(leU16(mem.Data, int(addr)+int(off)))))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI64Load16U:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(leU16(mem.Data, int(addr)+int(off)))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI64Load32S:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(int64(int32(leU32(mem.Data, int(addr)+int(off)))))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI64Load32U:
			var off uint32
			off, ip = readMemArg(body, ip)
			addr := uint32(slots[sp-1])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			slots[sp-1] = uint64(leU32(mem.Data, int(addr)+int(off)))
			if tags != nil {
				tags[sp-1] = wasm.TagI64
			}
		case wasm.OpI32Store:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 4)
			putU32(mem.Data, int(addr)+int(off), uint32(slots[sp+1]))
		case wasm.OpI64Store:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 8)
			putU64(mem.Data, int(addr)+int(off), slots[sp+1])
		case wasm.OpF32Store:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 4)
			putU32(mem.Data, int(addr)+int(off), uint32(slots[sp+1]))
		case wasm.OpF64Store:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 8) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 8)
			putU64(mem.Data, int(addr)+int(off), slots[sp+1])
		case wasm.OpI32Store8:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 1)
			mem.Data[int(addr)+int(off)] = byte(slots[sp+1])
		case wasm.OpI32Store16:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 2)
			putU16(mem.Data, int(addr)+int(off), uint16(slots[sp+1]))
		case wasm.OpI64Store8:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 1) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 1)
			mem.Data[int(addr)+int(off)] = byte(slots[sp+1])
		case wasm.OpI64Store16:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 2) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 2)
			putU16(mem.Data, int(addr)+int(off), uint16(slots[sp+1]))
		case wasm.OpI64Store32:
			var off uint32
			off, ip = readMemArg(body, ip)
			sp -= 2
			addr := uint32(slots[sp])
			if !mem.InBounds(addr, off, 4) {
				return rt.Done, trap(rt.TrapOOBMemory)
			}
			mem.Mark(addr, off, 4)
			putU32(mem.Data, int(addr)+int(off), uint32(slots[sp+1]))
		case wasm.OpMemorySize:
			ip++ // memory index byte
			slots[sp] = uint64(mem.Pages())
			if tags != nil {
				tags[sp] = wasm.TagI32
			}
			sp++
		case wasm.OpMemoryGrow:
			ip++
			slots[sp-1] = uint64(uint32(mem.Grow(uint32(slots[sp-1]))))
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}

		case wasm.OpI32Const:
			var v int32
			v, ip = readS32(body, ip)
			slots[sp] = uint64(uint32(v))
			if tags != nil {
				tags[sp] = wasm.TagI32
			}
			sp++
		case wasm.OpI64Const:
			var v int64
			v, ip = readS64(body, ip)
			slots[sp] = uint64(v)
			if tags != nil {
				tags[sp] = wasm.TagI64
			}
			sp++
		case wasm.OpF32Const:
			slots[sp] = uint64(leU32(body, ip))
			ip += 4
			if tags != nil {
				tags[sp] = wasm.TagF32
			}
			sp++
		case wasm.OpF64Const:
			slots[sp] = leU64(body, ip)
			ip += 8
			if tags != nil {
				tags[sp] = wasm.TagF64
			}
			sp++

		case wasm.OpRefNull:
			ip++ // heap type byte
			slots[sp] = wasm.NullRef
			if tags != nil {
				tags[sp] = wasm.TagRef
			}
			sp++
		case wasm.OpRefIsNull:
			if slots[sp-1] == wasm.NullRef {
				slots[sp-1] = 1
			} else {
				slots[sp-1] = 0
			}
			if tags != nil {
				tags[sp-1] = wasm.TagI32
			}
		case wasm.OpRefFunc:
			var fidx uint32
			fidx, ip = readU32(body, ip)
			slots[sp] = uint64(fidx) + 1
			if tags != nil {
				tags[sp] = wasm.TagFuncRef
			}
			sp++

		// The numeric hot set: about 95% of the numeric ops the suite
		// items execute. Each result has its first operand's type, and
		// that slot was tagged when it was pushed, so none stores a tag.
		// Every other numeric op goes through numeric (numx).
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
		case wasm.OpI32ShrS:
			sp--
			slots[sp-1] = uint64(uint32(int32(slots[sp-1]) >> (uint32(slots[sp]) & 31)))
		case wasm.OpI32ShrU:
			sp--
			slots[sp-1] = uint64(uint32(slots[sp-1]) >> (uint32(slots[sp]) & 31))
		case wasm.OpI32Rotl:
			sp--
			slots[sp-1] = uint64(bits.RotateLeft32(uint32(slots[sp-1]), int(uint32(slots[sp])&31)))
		case wasm.OpI32Rotr:
			sp--
			slots[sp-1] = uint64(bits.RotateLeft32(uint32(slots[sp-1]), -int(uint32(slots[sp])&31)))
		case wasm.OpI32Eqz:
			slots[sp-1] = numx.B2u(uint32(slots[sp-1]) == 0)
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
		case wasm.OpI64Add:
			sp--
			slots[sp-1] += slots[sp]
		case wasm.OpI64Sub:
			sp--
			slots[sp-1] -= slots[sp]
		case wasm.OpI64Mul:
			sp--
			slots[sp-1] *= slots[sp]
		case wasm.OpI64And:
			sp--
			slots[sp-1] &= slots[sp]
		case wasm.OpI64Or:
			sp--
			slots[sp-1] |= slots[sp]
		case wasm.OpI64Xor:
			sp--
			slots[sp-1] ^= slots[sp]
		case wasm.OpI64Shl:
			sp--
			slots[sp-1] <<= slots[sp] & 63
		case wasm.OpI64ShrU:
			sp--
			slots[sp-1] >>= slots[sp] & 63
		case wasm.OpI64Rotl:
			sp--
			slots[sp-1] = bits.RotateLeft64(slots[sp-1], int(slots[sp]&63))
		case wasm.OpI64Rotr:
			sp--
			slots[sp-1] = bits.RotateLeft64(slots[sp-1], -int(slots[sp]&63))
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

		case wasm.Opcode(wasm.PrefixFC):
			var sub uint32
			sub, ip = readU32(body, ip)
			var trapKind rt.TrapKind
			sp, ip, trapKind = fcOp(sub, ip, slots, tags, sp, mem)
			if trapKind != rt.TrapNone {
				return rt.Done, trap(trapKind)
			}

		default:
			var trapKind rt.TrapKind
			sp, trapKind = numeric(wasm.Opcode(op), slots, tags, sp)
			if trapKind != rt.TrapNone {
				return rt.Done, trap(trapKind)
			}
		}
	}
}

func shouldOSR(ctx *rt.Context, f *rt.FuncInst) bool {
	if ctx.OSRThreshold <= 0 {
		return false
	}
	f.CallCount++
	if f.CallCount < ctx.OSRThreshold {
		return false
	}
	if ctx.CountStats {
		ctx.Stats.OSRUps++
	}
	return true
}

// numeric executes a numeric instruction run does not inline, through
// numx, and tags its result eagerly. It returns the new stack top and a
// trap kind (TrapNone on success).
func numeric(op wasm.Opcode, slots []uint64, tags []wasm.Tag, sp int) (int, rt.TrapKind) {
	params, results, _ := op.Sig()
	var (
		v    uint64
		kind rt.TrapKind
		ok   bool
	)
	switch len(params) {
	case 1:
		v, kind, ok = numx.EvalUn(op, slots[sp-1])
	case 2:
		sp--
		v, kind, ok = numx.EvalBin(op, slots[sp-1], slots[sp])
	}
	if !ok {
		return sp, rt.TrapUnreachable
	}
	if kind != rt.TrapNone {
		return sp, kind
	}
	slots[sp-1] = v
	if tags != nil {
		tags[sp-1] = wasm.TagOf(results[0])
	}
	return sp, rt.TrapNone
}

// fcOp executes a 0xFC-prefixed instruction: the bulk-memory ops here,
// the saturating truncations through numeric.
func fcOp(sub uint32, ip int, slots []uint64, tags []wasm.Tag, sp int, mem *rt.Memory) (int, int, rt.TrapKind) {
	op := wasm.Opcode(0x100 + sub)
	switch op {
	case wasm.OpMemoryCopy:
		ip += 2 // two reserved memory index bytes
		sp -= 3
		dst, src, n := uint32(slots[sp]), uint32(slots[sp+1]), uint32(slots[sp+2])
		if !mem.InBounds(dst, 0, int(n)) || !mem.InBounds(src, 0, int(n)) {
			return sp, ip, rt.TrapOOBMemory
		}
		mem.Mark(dst, 0, int(n))
		copy(mem.Data[dst:dst+n], mem.Data[src:src+n])
		return sp, ip, rt.TrapNone
	case wasm.OpMemoryFill:
		ip++ // reserved memory index byte
		sp -= 3
		dst, val, n := uint32(slots[sp]), byte(slots[sp+1]), uint32(slots[sp+2])
		if !mem.InBounds(dst, 0, int(n)) {
			return sp, ip, rt.TrapOOBMemory
		}
		mem.Mark(dst, 0, int(n))
		for i := uint32(0); i < n; i++ {
			mem.Data[dst+i] = val
		}
		return sp, ip, rt.TrapNone
	}
	sp, kind := numeric(op, slots, tags, sp)
	return sp, ip, kind
}
