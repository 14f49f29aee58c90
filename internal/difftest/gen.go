package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"wizgo/internal/wasm"
)

// The structure-aware module generator. Modules are valid by
// construction: bodies are produced by a statement/expression grammar
// that is stack-neutral at statement granularity, all blocks carry the
// empty block type (so every label has arity 0 and any branch is
// type-correct), branches never target loop labels except the counted
// back-edge the generator itself emits (so every generated loop
// terminates), and calls form a DAG (direct calls and table entries
// only reference strictly lower function indices), so no generated
// program recurses. What remains free is exactly the surface the four
// tiers disagree on when they have bugs: nested control flow with
// br_table fan-out, i32/i64/f64 arithmetic including div/rem/trunc trap
// edges, loads and stores hugging the page boundary, globals, and
// call_indirect with type checks against a partially-null table.

// GenConfig tunes the generator.
type GenConfig struct {
	// MaxFuncs bounds the number of defined functions (default 6).
	MaxFuncs int
	// MaxStmts is the per-function statement budget (default 16).
	MaxStmts int
	// MemPages is the memory minimum in pages (default 1); the maximum
	// is one page above so one memory.grow can succeed.
	MemPages uint32
	// Unbounded additionally emits the cancellation probes: "spin", an
	// infinite loop, and "spin_counted", a counted loop with a 2^30 trip
	// bound — neither receives a Call; the cancellation tests invoke
	// them under a deadline.
	Unbounded bool
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxFuncs <= 0 {
		c.MaxFuncs = 6
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 16
	}
	if c.MemPages == 0 {
		c.MemPages = 1
	}
	return c
}

// numTypes is the value-type universe the generator draws from.
var numTypes = []wasm.ValueType{wasm.I32, wasm.I64, wasm.F64}

// Generate synthesizes one module plus the calls that exercise it,
// deterministically from seed.
func Generate(seed int64, cfg GenConfig) Generated {
	g := &gen{
		r:   rand.New(rand.NewSource(seed)),
		cfg: cfg.withDefaults(),
		b:   wasm.NewBuilder(),
	}
	return g.module(seed)
}

type gen struct {
	r   *rand.Rand
	cfg GenConfig
	b   *wasm.Builder

	sigs     []wasm.FuncType
	typeIdxs []uint32
	globals  []wasm.ValueType // all mutable
	// tableCut: functions with index < tableCut may appear in the
	// table; functions with index >= tableCut may emit call_indirect —
	// keeping the call graph a DAG even through the table.
	tableCut  int
	tableSize uint32
	hasTable  bool
}

func (g *gen) module(seed int64) Generated {
	r := g.r

	// Memory with one page of growth headroom, plus 0-2 data segments.
	g.b.AddMemory(g.cfg.MemPages, g.cfg.MemPages+1)
	for i, n := 0, r.Intn(3); i < n; i++ {
		data := make([]byte, 1+r.Intn(24))
		r.Read(data)
		limit := g.cfg.MemPages*wasm.PageSize - uint32(len(data))
		g.b.AddData(uint32(r.Intn(int(limit))), data)
	}

	// Mutable globals of random numeric types.
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		t := numTypes[r.Intn(len(numTypes))]
		g.b.AddGlobal(t, true, g.constValue(t))
		g.globals = append(g.globals, t)
	}

	nFuncs := 1 + r.Intn(g.cfg.MaxFuncs)
	for i := 0; i < nFuncs; i++ {
		sig := g.randSig()
		g.sigs = append(g.sigs, sig)
		g.typeIdxs = append(g.typeIdxs, g.b.AddType(sig))
	}
	g.tableCut = nFuncs / 2
	g.hasTable = g.tableCut > 0 && r.Intn(4) > 0
	if g.hasTable {
		g.tableSize = uint32(4 + r.Intn(5))
	}

	for i := 0; i < nFuncs; i++ {
		g.buildFunc(i)
	}

	if g.hasTable {
		// A table larger than its element segment leaves null slots, so
		// a generated index can hit OOB, null, matching and mismatching
		// entries — the full call_indirect trap surface.
		g.b.AddTable(g.tableSize)
		n := 1 + r.Intn(g.tableCut)
		offset := uint32(r.Intn(int(g.tableSize) - n + 1))
		funcs := make([]uint32, n)
		for i := range funcs {
			funcs[i] = uint32(r.Intn(g.tableCut))
		}
		g.b.AddElem(offset, funcs)
	}

	if g.cfg.Unbounded {
		g.buildSpin()
	}

	gen := Generated{Seed: seed, Bytes: g.b.Encode()}
	for i := 0; i < nFuncs; i++ {
		for c, n := 0, 1+g.r.Intn(2); c < n; c++ {
			call := Call{Export: fmt.Sprintf("f%d", i)}
			for _, p := range g.sigs[i].Params {
				call.Args = append(call.Args, g.argValue(p))
			}
			gen.Calls = append(gen.Calls, call)
		}
	}
	return gen
}

func (g *gen) randSig() wasm.FuncType {
	var sig wasm.FuncType
	for i, n := 0, g.r.Intn(4); i < n; i++ {
		sig.Params = append(sig.Params, numTypes[g.r.Intn(len(numTypes))])
	}
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		sig.Results = append(sig.Results, numTypes[g.r.Intn(len(numTypes))])
	}
	return sig
}

// buildSpin emits the two cancellation probes (see GenConfig.Unbounded).
func (g *gen) buildSpin() {
	f := g.b.NewFunc("", wasm.FuncType{})
	f.Loop(wasm.BlockEmpty)
	f.I32Const(0).I32Const(1).Store(wasm.OpI32Store, 0)
	f.Br(0)
	f.End()
	g.b.Export("spin", f.Idx)

	f = g.b.NewFunc("", wasm.FuncType{})
	c := f.AddLocal(wasm.I32)
	f.Loop(wasm.BlockEmpty)
	f.I32Const(16).LocalGet(c).Store(wasm.OpI32Store, 8)
	f.LocalGet(c).I32Const(1).Op(wasm.OpI32Add).LocalSet(c)
	f.LocalGet(c).I32Const(1 << 30).Op(wasm.OpI32LtS).BrIf(0)
	f.End()
	g.b.Export("spin_counted", f.Idx)
}

// fgen generates one function body.
type fgen struct {
	g       *gen
	f       *wasm.FuncBuilder
	selfIdx int
	sig     wasm.FuncType
	locals  []wasm.ValueType
	// reserved marks loop-counter locals: statements never write them,
	// which is what guarantees every counted loop terminates.
	reserved map[uint32]bool
	frames   []gframe
	budget   int
}

type gframe struct {
	loop bool
	// noBr excludes the label from brTargets: a multi-value block's
	// label carries result arity, so a statement-level branch (which
	// assumes arity 0) would be type-incorrect.
	noBr bool
}

func (g *gen) buildFunc(idx int) {
	sig := g.sigs[idx]
	f := g.b.NewFunc("", sig)
	fg := &fgen{
		g: g, f: f, selfIdx: idx, sig: sig,
		locals:   append([]wasm.ValueType(nil), sig.Params...),
		reserved: map[uint32]bool{},
		budget:   g.cfg.MaxStmts,
	}
	for i, n := 0, g.r.Intn(5); i < n; i++ {
		t := numTypes[g.r.Intn(len(numTypes))]
		f.AddLocal(t)
		fg.locals = append(fg.locals, t)
	}
	fg.stmts(0)
	for _, t := range sig.Results {
		fg.expr(t, 2)
	}
	f.End()
	g.b.Export(fmt.Sprintf("f%d", idx), f.Idx)
}

// stmts emits statements until the budget runs out. blockDepth bounds
// construct nesting independently of the budget.
func (fg *fgen) stmts(blockDepth int) {
	for fg.budget > 0 {
		fg.budget--
		fg.stmt(blockDepth)
		if fg.g.r.Intn(6) == 0 {
			return
		}
	}
}

func (fg *fgen) stmt(blockDepth int) {
	r := fg.g.r
	for {
		switch r.Intn(15) {
		case 0, 1:
			fg.localSetStmt()
		case 2:
			fg.globalSetStmt()
		case 3, 4:
			fg.storeStmt()
		case 5:
			fg.expr(numTypes[r.Intn(len(numTypes))], 2)
			fg.f.Op(wasm.OpDrop)
		case 6:
			if blockDepth >= 3 {
				continue
			}
			fg.ifStmt(blockDepth)
		case 7:
			if blockDepth >= 3 {
				continue
			}
			fg.blockStmt(blockDepth)
		case 8:
			if blockDepth >= 2 {
				continue
			}
			fg.countedLoop(blockDepth)
		case 9:
			if !fg.brIfStmt() {
				continue
			}
		case 10:
			if blockDepth >= 3 {
				continue
			}
			fg.brTableStmt()
		case 11:
			if !fg.callStmt() {
				continue
			}
		case 12:
			if !fg.callIndirectStmt() {
				continue
			}
		case 13:
			fg.memoryStmt()
		case 14:
			if blockDepth >= 3 {
				continue
			}
			fg.multiValueBlockStmt(blockDepth)
		}
		return
	}
}

func (fg *fgen) localSetStmt() {
	var cands []uint32
	for i, t := range fg.locals {
		_ = t
		if !fg.reserved[uint32(i)] {
			cands = append(cands, uint32(i))
		}
	}
	if len(cands) == 0 {
		fg.expr(wasm.I32, 1)
		fg.f.Op(wasm.OpDrop)
		return
	}
	idx := cands[fg.g.r.Intn(len(cands))]
	fg.expr(fg.locals[idx], 3)
	if fg.g.r.Intn(4) == 0 {
		fg.f.LocalTee(idx)
		fg.f.Op(wasm.OpDrop)
	} else {
		fg.f.LocalSet(idx)
	}
}

func (fg *fgen) globalSetStmt() {
	if len(fg.g.globals) == 0 {
		fg.localSetStmt()
		return
	}
	idx := uint32(fg.g.r.Intn(len(fg.g.globals)))
	fg.expr(fg.g.globals[idx], 2)
	fg.f.GlobalSet(idx)
}

// storeOps maps a value type to its store variants.
var storeOps = map[wasm.ValueType][]wasm.Opcode{
	wasm.I32: {wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16},
	wasm.I64: {wasm.OpI64Store, wasm.OpI64Store8, wasm.OpI64Store16, wasm.OpI64Store32},
	wasm.F64: {wasm.OpF64Store},
}

var loadOps = map[wasm.ValueType][]wasm.Opcode{
	wasm.I32: {wasm.OpI32Load, wasm.OpI32Load8S, wasm.OpI32Load8U, wasm.OpI32Load16S, wasm.OpI32Load16U},
	wasm.I64: {wasm.OpI64Load, wasm.OpI64Load8S, wasm.OpI64Load8U, wasm.OpI64Load16S, wasm.OpI64Load16U, wasm.OpI64Load32S, wasm.OpI64Load32U},
	wasm.F64: {wasm.OpF64Load},
}

func (fg *fgen) storeStmt() {
	t := numTypes[fg.g.r.Intn(len(numTypes))]
	ops := storeOps[t]
	fg.addrExpr()
	fg.expr(t, 2)
	fg.f.Store(ops[fg.g.r.Intn(len(ops))], fg.memOffset())
}

// memOffset picks a static offset: usually tiny, occasionally large
// enough to push a boundary-hugging address out of bounds.
func (fg *fgen) memOffset() uint32 {
	if fg.g.r.Intn(8) == 0 {
		return uint32(fg.g.r.Intn(64))
	}
	return uint32(fg.g.r.Intn(8))
}

// addrExpr pushes an i32 address. The mix matters: mostly in-bounds
// (constants and masked dynamic addresses), with a deliberate tail of
// page-boundary constants and raw dynamic values that trap, so both
// sides of the OOB check are exercised.
func (fg *fgen) addrExpr() {
	r := fg.g.r
	pageBytes := int(fg.g.cfg.MemPages) * wasm.PageSize
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		fg.f.I32Const(int32(r.Intn(pageBytes - 64)))
	case 4, 5, 6:
		fg.expr(wasm.I32, 2)
		fg.f.I32Const(0xFF0)
		fg.f.Op(wasm.OpI32And)
	case 7, 8:
		fg.f.I32Const(int32(pageBytes - 8 + r.Intn(17)))
	default:
		fg.expr(wasm.I32, 2)
	}
}

func (fg *fgen) ifStmt(blockDepth int) {
	fg.expr(wasm.I32, 2)
	fg.f.If(wasm.BlockEmpty)
	fg.frames = append(fg.frames, gframe{})
	fg.stmts(blockDepth + 1)
	if fg.g.r.Intn(2) == 0 {
		fg.f.Else()
		fg.stmts(blockDepth + 1)
	}
	fg.frames = fg.frames[:len(fg.frames)-1]
	fg.f.End()
}

func (fg *fgen) blockStmt(blockDepth int) {
	fg.f.Block(wasm.BlockEmpty)
	fg.frames = append(fg.frames, gframe{})
	fg.stmts(blockDepth + 1)
	fg.frames = fg.frames[:len(fg.frames)-1]
	fg.f.End()
}

// countedLoop emits the terminating loop idiom: a reserved counter
// local stepped by 1 toward a small constant bound, br_if back-edge.
// Nothing else may branch to a loop label, so termination is
// structural. Small bounds keep runtimes short.
func (fg *fgen) countedLoop(blockDepth int) {
	c := fg.f.AddLocal(wasm.I32)
	fg.locals = append(fg.locals, wasm.I32)
	fg.reserved[c] = true
	bound := int32(2 + fg.g.r.Intn(7))
	fg.f.I32Const(0)
	fg.f.LocalSet(c)
	fg.f.Loop(wasm.BlockEmpty)
	fg.frames = append(fg.frames, gframe{loop: true})
	fg.stmts(blockDepth + 1)
	fg.f.LocalGet(c)
	fg.f.I32Const(1)
	fg.f.Op(wasm.OpI32Add)
	fg.f.LocalSet(c)
	fg.f.LocalGet(c)
	fg.f.I32Const(bound)
	fg.f.Op(wasm.OpI32LtS)
	fg.f.BrIf(0)
	fg.frames = fg.frames[:len(fg.frames)-1]
	fg.f.End()
}

// multiValueBlockStmt emits a block typed by a multi-result function
// type. Inner statements never branch to its label (noBr), but half the
// time the block branches to itself with its results already on the
// stack — the multi-value br_if transfer every tier's branch arity
// handling must get right. The results are dropped after the end to
// keep the statement stack-neutral.
func (fg *fgen) multiValueBlockStmt(blockDepth int) {
	g := fg.g
	var ft wasm.FuncType
	for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
		ft.Results = append(ft.Results, numTypes[g.r.Intn(len(numTypes))])
	}
	fg.f.Block(wasm.BlockFunc(g.b.AddType(ft)))
	fg.frames = append(fg.frames, gframe{noBr: true})
	fg.stmts(blockDepth + 1)
	for _, t := range ft.Results {
		fg.expr(t, 2)
	}
	if g.r.Intn(2) == 0 {
		fg.expr(wasm.I32, 1)
		fg.f.BrIf(0)
	}
	fg.frames = fg.frames[:len(fg.frames)-1]
	fg.f.End()
	for range ft.Results {
		fg.f.Op(wasm.OpDrop)
	}
}

// brTargets returns the relative depths of branchable (non-loop) labels.
func (fg *fgen) brTargets() []uint32 {
	var ds []uint32
	for i, fr := range fg.frames {
		if !fr.loop && !fr.noBr {
			ds = append(ds, uint32(len(fg.frames)-1-i))
		}
	}
	return ds
}

func (fg *fgen) brIfStmt() bool {
	ds := fg.brTargets()
	if len(ds) == 0 {
		return false
	}
	fg.expr(wasm.I32, 2)
	fg.f.BrIf(ds[fg.g.r.Intn(len(ds))])
	return true
}

// brTableStmt wraps a br_table in a fresh block so the statement stays
// stack-neutral on every path (br_table is a terminator).
func (fg *fgen) brTableStmt() {
	fg.f.Block(wasm.BlockEmpty)
	fg.frames = append(fg.frames, gframe{})
	ds := fg.brTargets()
	fg.expr(wasm.I32, 2)
	targets := make([]uint32, 1+fg.g.r.Intn(4))
	for i := range targets {
		targets[i] = ds[fg.g.r.Intn(len(ds))]
	}
	fg.f.BrTable(targets, ds[fg.g.r.Intn(len(ds))])
	fg.frames = fg.frames[:len(fg.frames)-1]
	fg.f.End()
}

func (fg *fgen) callStmt() bool {
	if fg.selfIdx == 0 {
		return false
	}
	callee := fg.g.r.Intn(fg.selfIdx)
	sig := fg.g.sigs[callee]
	for _, p := range sig.Params {
		fg.expr(p, 2)
	}
	fg.f.Call(uint32(callee))
	for range sig.Results {
		fg.f.Op(wasm.OpDrop)
	}
	return true
}

func (fg *fgen) callIndirectStmt() bool {
	g := fg.g
	if !g.hasTable || fg.selfIdx < g.tableCut {
		return false
	}
	// Mostly a type that some table entry satisfies, sometimes any type
	// (a likely signature mismatch).
	var typeIdx uint32
	sigOf := g.r.Intn(g.tableCut)
	if g.r.Intn(3) == 0 {
		sigOf = g.r.Intn(len(g.sigs))
	}
	typeIdx = g.typeIdxs[sigOf]
	sig := g.sigs[sigOf]
	for _, p := range sig.Params {
		fg.expr(p, 2)
	}
	// Index: usually within the table (hitting filled and null slots),
	// sometimes just past it (OOB), rarely fully dynamic.
	switch g.r.Intn(8) {
	case 6:
		fg.f.I32Const(int32(g.tableSize) + int32(g.r.Intn(3)))
	case 7:
		fg.expr(wasm.I32, 1)
	default:
		fg.f.I32Const(int32(g.r.Intn(int(g.tableSize))))
	}
	fg.f.CallIndirect(typeIdx)
	for range sig.Results {
		fg.f.Op(wasm.OpDrop)
	}
	return true
}

func (fg *fgen) memoryStmt() {
	r := fg.g.r
	switch r.Intn(6) {
	case 0:
		fg.f.I32Const(int32(r.Intn(2)))
		fg.f.MemoryGrow()
		fg.f.Op(wasm.OpDrop)
	case 1, 2:
		fg.f.I32Const(int32(r.Intn(int(fg.g.cfg.MemPages)*wasm.PageSize + 64)))
		fg.f.I32Const(int32(r.Intn(256)))
		fg.f.I32Const(int32(r.Intn(128)))
		fg.f.MemoryFill()
	case 3, 4:
		fg.f.I32Const(int32(r.Intn(int(fg.g.cfg.MemPages)*wasm.PageSize + 64)))
		fg.f.I32Const(int32(r.Intn(int(fg.g.cfg.MemPages) * wasm.PageSize)))
		fg.f.I32Const(int32(r.Intn(128)))
		fg.f.MemoryCopy()
	default:
		fg.f.MemorySize()
		fg.f.Op(wasm.OpDrop)
	}
}

// Expressions. expr emits instructions that push exactly one value of
// type t; depth bounds the tree.

var (
	i32Unops  = []wasm.Opcode{wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt, wasm.OpI32Extend8S, wasm.OpI32Extend16S, wasm.OpI32Eqz}
	i32Binops = []wasm.Opcode{
		wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32DivS, wasm.OpI32DivU,
		wasm.OpI32RemS, wasm.OpI32RemU, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU, wasm.OpI32Rotl, wasm.OpI32Rotr,
	}
	i32Cmps   = []wasm.Opcode{wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU}
	i64Unops  = []wasm.Opcode{wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt, wasm.OpI64Extend8S, wasm.OpI64Extend16S, wasm.OpI64Extend32S}
	i64Binops = []wasm.Opcode{
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64DivS, wasm.OpI64DivU,
		wasm.OpI64RemS, wasm.OpI64RemU, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
		wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU, wasm.OpI64Rotl, wasm.OpI64Rotr,
	}
	i64Cmps   = []wasm.Opcode{wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU, wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU}
	f64Unops  = []wasm.Opcode{wasm.OpF64Abs, wasm.OpF64Neg, wasm.OpF64Ceil, wasm.OpF64Floor, wasm.OpF64Trunc, wasm.OpF64Nearest, wasm.OpF64Sqrt}
	f64Binops = []wasm.Opcode{
		wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
		wasm.OpF64Min, wasm.OpF64Max, wasm.OpF64Copysign,
	}
	f64Cmps = []wasm.Opcode{wasm.OpF64Eq, wasm.OpF64Ne, wasm.OpF64Lt, wasm.OpF64Gt, wasm.OpF64Le, wasm.OpF64Ge}

	// toI32/toI64/toF64: (source type, opcode) conversions into the key
	// type, including the trapping truncations and their saturating
	// variants — the trap-edge surface of the conversion matrix.
	toI32 = []conv{
		{wasm.I64, wasm.OpI32WrapI64},
		{wasm.F64, wasm.OpI32TruncF64S}, {wasm.F64, wasm.OpI32TruncF64U},
		{wasm.F64, wasm.OpI32TruncSatF64S}, {wasm.F64, wasm.OpI32TruncSatF64U},
	}
	toI64 = []conv{
		{wasm.I32, wasm.OpI64ExtendI32S}, {wasm.I32, wasm.OpI64ExtendI32U},
		{wasm.F64, wasm.OpI64TruncF64S}, {wasm.F64, wasm.OpI64TruncF64U},
		{wasm.F64, wasm.OpI64TruncSatF64S}, {wasm.F64, wasm.OpI64TruncSatF64U},
		{wasm.F64, wasm.OpI64ReinterpretF64},
	}
	toF64 = []conv{
		{wasm.I32, wasm.OpF64ConvertI32S}, {wasm.I32, wasm.OpF64ConvertI32U},
		{wasm.I64, wasm.OpF64ConvertI64S}, {wasm.I64, wasm.OpF64ConvertI64U},
		{wasm.I64, wasm.OpF64ReinterpretI64},
	}
)

type conv struct {
	from wasm.ValueType
	op   wasm.Opcode
}

func (fg *fgen) expr(t wasm.ValueType, depth int) {
	r := fg.g.r
	if depth <= 0 {
		fg.leaf(t)
		return
	}
	switch r.Intn(12) {
	case 0, 1:
		fg.leaf(t)
	case 2, 3:
		fg.unop(t, depth)
	case 4, 5, 6:
		fg.binop(t, depth)
	case 7:
		fg.cmpOrConv(t, depth)
	case 8, 9:
		ops := loadOps[t]
		fg.addrExpr()
		fg.f.Load(ops[r.Intn(len(ops))], fg.memOffset())
	case 10:
		fg.expr(t, depth-1)
		fg.expr(t, depth-1)
		fg.expr(wasm.I32, depth-1)
		if r.Intn(2) == 0 {
			fg.f.SelectT(t)
		} else {
			fg.f.Op(wasm.OpSelect)
		}
	default:
		if !fg.exprCall(t, depth) {
			fg.binop(t, depth)
		}
	}
}

func (fg *fgen) unop(t wasm.ValueType, depth int) {
	switch t {
	case wasm.I32:
		op := i32Unops[fg.g.r.Intn(len(i32Unops))]
		fg.expr(wasm.I32, depth-1)
		fg.f.Op(op)
	case wasm.I64:
		op := i64Unops[fg.g.r.Intn(len(i64Unops))]
		fg.expr(wasm.I64, depth-1)
		fg.f.Op(op)
	default:
		op := f64Unops[fg.g.r.Intn(len(f64Unops))]
		fg.expr(wasm.F64, depth-1)
		fg.f.Op(op)
	}
}

func (fg *fgen) binop(t wasm.ValueType, depth int) {
	var ops []wasm.Opcode
	switch t {
	case wasm.I32:
		ops = i32Binops
	case wasm.I64:
		ops = i64Binops
	default:
		ops = f64Binops
	}
	fg.expr(t, depth-1)
	fg.expr(t, depth-1)
	fg.f.Op(ops[fg.g.r.Intn(len(ops))])
}

// cmpOrConv produces t via a comparison (for i32) or a conversion.
func (fg *fgen) cmpOrConv(t wasm.ValueType, depth int) {
	r := fg.g.r
	if t == wasm.I32 && r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			fg.expr(wasm.I32, depth-1)
			fg.expr(wasm.I32, depth-1)
			fg.f.Op(i32Cmps[r.Intn(len(i32Cmps))])
		case 1:
			fg.expr(wasm.I64, depth-1)
			fg.expr(wasm.I64, depth-1)
			fg.f.Op(i64Cmps[r.Intn(len(i64Cmps))])
		default:
			fg.expr(wasm.F64, depth-1)
			fg.expr(wasm.F64, depth-1)
			fg.f.Op(f64Cmps[r.Intn(len(f64Cmps))])
		}
		return
	}
	var cs []conv
	switch t {
	case wasm.I32:
		cs = toI32
	case wasm.I64:
		cs = toI64
	default:
		cs = toF64
	}
	c := cs[r.Intn(len(cs))]
	fg.expr(c.from, depth-1)
	fg.f.Op(c.op)
}

func (fg *fgen) exprCall(t wasm.ValueType, depth int) bool {
	var cands []int
	for j := 0; j < fg.selfIdx; j++ {
		sig := fg.g.sigs[j]
		if len(sig.Results) == 1 && sig.Results[0] == t {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return false
	}
	callee := cands[fg.g.r.Intn(len(cands))]
	for _, p := range fg.g.sigs[callee].Params {
		fg.expr(p, depth-1)
	}
	fg.f.Call(uint32(callee))
	return true
}

func (fg *fgen) leaf(t wasm.ValueType) {
	r := fg.g.r
	if r.Intn(3) > 0 {
		var cands []uint32
		for i, lt := range fg.locals {
			if lt == t {
				cands = append(cands, uint32(i))
			}
		}
		for i, gt := range fg.g.globals {
			if gt == t {
				cands = append(cands, uint32(len(fg.locals)+i))
			}
		}
		if len(cands) > 0 {
			idx := cands[r.Intn(len(cands))]
			if int(idx) < len(fg.locals) {
				fg.f.LocalGet(idx)
			} else {
				fg.f.GlobalGet(idx - uint32(len(fg.locals)))
			}
			return
		}
	}
	fg.emitConst(t)
}

// Interesting constant pools: identities, signs, type extremes, shift
// widths, page-boundary addresses — the values integer trap edges and
// float special cases live on.
var (
	i32Pool = []int32{0, 1, -1, 2, 7, 16, 31, 32, 255, 0xFFFF, 65536, math.MaxInt32, math.MinInt32}
	i64Pool = []int64{0, 1, -1, 2, 13, 63, 64, 0xFFFFFFFF, 1 << 32, math.MaxInt64, math.MinInt64}
	f64Pool = []float64{0, 1, -1, 0.5, -0.5, 1e9, -1e9, 1e-300, 2147483648, -2147483649,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
)

func (fg *fgen) emitConst(t wasm.ValueType) {
	v := fg.g.constValue(t)
	switch t {
	case wasm.I32:
		fg.f.I32Const(v.I32())
	case wasm.I64:
		fg.f.I64Const(v.I64())
	default:
		fg.f.F64Const(v.F64())
	}
}

func (g *gen) constValue(t wasm.ValueType) wasm.Value {
	r := g.r
	switch t {
	case wasm.I32:
		if r.Intn(3) == 0 {
			return wasm.ValI32(int32(r.Uint32()))
		}
		return wasm.ValI32(i32Pool[r.Intn(len(i32Pool))])
	case wasm.I64:
		if r.Intn(3) == 0 {
			return wasm.ValI64(int64(r.Uint64()))
		}
		return wasm.ValI64(i64Pool[r.Intn(len(i64Pool))])
	default:
		if r.Intn(3) == 0 {
			return wasm.ValF64(r.NormFloat64() * 1e3)
		}
		return wasm.ValF64(f64Pool[r.Intn(len(f64Pool))])
	}
}

// argValue picks a call argument from the same interesting pools.
func (g *gen) argValue(t wasm.ValueType) wasm.Value { return g.constValue(t) }

// MutateInvalid corrupts a valid module's bytes (deterministically from
// r) for the validator-differential mode: the property under test is
// that every configuration agrees on accepting or rejecting the result
// — and that no frontend panics on it. Some mutations land in data
// segments or constants and keep the module valid; those then flow
// through the full execution oracle.
func MutateInvalid(r *rand.Rand, valid []byte) []byte {
	b := append([]byte(nil), valid...)
	for i, n := 0, 1+r.Intn(3); i < n && len(b) > 8; i++ {
		switch r.Intn(5) {
		case 0: // flip one bit
			p := 8 + r.Intn(len(b)-8)
			b[p] ^= 1 << r.Intn(8)
		case 1: // overwrite one byte
			b[8+r.Intn(len(b)-8)] = byte(r.Intn(256))
		case 2: // truncate the tail
			b = b[:8+r.Intn(len(b)-8)]
		case 3: // delete one byte
			p := 8 + r.Intn(len(b)-8)
			b = append(b[:p], b[p+1:]...)
		case 4: // insert one random byte
			p := 8 + r.Intn(len(b)-8)
			b = append(b[:p], append([]byte{byte(r.Intn(256))}, b[p:]...)...)
		}
	}
	return b
}

// DeriveCalls builds zero-argument-value calls for every exported
// function of a decodable module — the workload used for mutated and
// fuzz-provided modules whose intended calls are unknown. Returns nil
// when the bytes do not decode.
func DeriveCalls(bytes []byte) []Call {
	m, err := wasm.Decode(bytes)
	if err != nil {
		return nil
	}
	var calls []Call
	for _, e := range m.Exports {
		if e.Kind != wasm.ExternFunc {
			continue
		}
		ft, err := m.FuncTypeAt(e.Idx)
		if err != nil {
			continue
		}
		call := Call{Export: e.Name}
		for _, p := range ft.Params {
			call.Args = append(call.Args, wasm.Value{Type: p})
		}
		calls = append(calls, call)
	}
	return calls
}
