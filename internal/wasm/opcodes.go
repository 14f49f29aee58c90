package wasm

import "fmt"

// Opcode is a Wasm instruction opcode. Single-byte opcodes use their
// binary encoding directly; 0xFC-prefixed opcodes are mapped into the
// 0x100+ range so every instruction has a distinct Opcode value. An
// Opcode indexes opTable directly: every per-opcode question (Known,
// Imm, Sig, String) is a bounds check and a load, and values past the
// table answer "unknown" rather than panic.
type Opcode uint16

// Core single-byte opcodes (Wasm core spec §5.4).
const (
	OpUnreachable  Opcode = 0x00
	OpNop          Opcode = 0x01
	OpBlock        Opcode = 0x02
	OpLoop         Opcode = 0x03
	OpIf           Opcode = 0x04
	OpElse         Opcode = 0x05
	OpEnd          Opcode = 0x0B
	OpBr           Opcode = 0x0C
	OpBrIf         Opcode = 0x0D
	OpBrTable      Opcode = 0x0E
	OpReturn       Opcode = 0x0F
	OpCall         Opcode = 0x10
	OpCallIndirect Opcode = 0x11

	OpDrop   Opcode = 0x1A
	OpSelect Opcode = 0x1B
	// OpSelectT is the typed select from the reference-types proposal.
	OpSelectT Opcode = 0x1C

	OpLocalGet  Opcode = 0x20
	OpLocalSet  Opcode = 0x21
	OpLocalTee  Opcode = 0x22
	OpGlobalGet Opcode = 0x23
	OpGlobalSet Opcode = 0x24

	OpI32Load    Opcode = 0x28
	OpI64Load    Opcode = 0x29
	OpF32Load    Opcode = 0x2A
	OpF64Load    Opcode = 0x2B
	OpI32Load8S  Opcode = 0x2C
	OpI32Load8U  Opcode = 0x2D
	OpI32Load16S Opcode = 0x2E
	OpI32Load16U Opcode = 0x2F
	OpI64Load8S  Opcode = 0x30
	OpI64Load8U  Opcode = 0x31
	OpI64Load16S Opcode = 0x32
	OpI64Load16U Opcode = 0x33
	OpI64Load32S Opcode = 0x34
	OpI64Load32U Opcode = 0x35
	OpI32Store   Opcode = 0x36
	OpI64Store   Opcode = 0x37
	OpF32Store   Opcode = 0x38
	OpF64Store   Opcode = 0x39
	OpI32Store8  Opcode = 0x3A
	OpI32Store16 Opcode = 0x3B
	OpI64Store8  Opcode = 0x3C
	OpI64Store16 Opcode = 0x3D
	OpI64Store32 Opcode = 0x3E
	OpMemorySize Opcode = 0x3F
	OpMemoryGrow Opcode = 0x40

	OpI32Const Opcode = 0x41
	OpI64Const Opcode = 0x42
	OpF32Const Opcode = 0x43
	OpF64Const Opcode = 0x44

	OpI32Eqz Opcode = 0x45
	OpI32Eq  Opcode = 0x46
	OpI32Ne  Opcode = 0x47
	OpI32LtS Opcode = 0x48
	OpI32LtU Opcode = 0x49
	OpI32GtS Opcode = 0x4A
	OpI32GtU Opcode = 0x4B
	OpI32LeS Opcode = 0x4C
	OpI32LeU Opcode = 0x4D
	OpI32GeS Opcode = 0x4E
	OpI32GeU Opcode = 0x4F

	OpI64Eqz Opcode = 0x50
	OpI64Eq  Opcode = 0x51
	OpI64Ne  Opcode = 0x52
	OpI64LtS Opcode = 0x53
	OpI64LtU Opcode = 0x54
	OpI64GtS Opcode = 0x55
	OpI64GtU Opcode = 0x56
	OpI64LeS Opcode = 0x57
	OpI64LeU Opcode = 0x58
	OpI64GeS Opcode = 0x59
	OpI64GeU Opcode = 0x5A

	OpF32Eq Opcode = 0x5B
	OpF32Ne Opcode = 0x5C
	OpF32Lt Opcode = 0x5D
	OpF32Gt Opcode = 0x5E
	OpF32Le Opcode = 0x5F
	OpF32Ge Opcode = 0x60

	OpF64Eq Opcode = 0x61
	OpF64Ne Opcode = 0x62
	OpF64Lt Opcode = 0x63
	OpF64Gt Opcode = 0x64
	OpF64Le Opcode = 0x65
	OpF64Ge Opcode = 0x66

	OpI32Clz    Opcode = 0x67
	OpI32Ctz    Opcode = 0x68
	OpI32Popcnt Opcode = 0x69
	OpI32Add    Opcode = 0x6A
	OpI32Sub    Opcode = 0x6B
	OpI32Mul    Opcode = 0x6C
	OpI32DivS   Opcode = 0x6D
	OpI32DivU   Opcode = 0x6E
	OpI32RemS   Opcode = 0x6F
	OpI32RemU   Opcode = 0x70
	OpI32And    Opcode = 0x71
	OpI32Or     Opcode = 0x72
	OpI32Xor    Opcode = 0x73
	OpI32Shl    Opcode = 0x74
	OpI32ShrS   Opcode = 0x75
	OpI32ShrU   Opcode = 0x76
	OpI32Rotl   Opcode = 0x77
	OpI32Rotr   Opcode = 0x78

	OpI64Clz    Opcode = 0x79
	OpI64Ctz    Opcode = 0x7A
	OpI64Popcnt Opcode = 0x7B
	OpI64Add    Opcode = 0x7C
	OpI64Sub    Opcode = 0x7D
	OpI64Mul    Opcode = 0x7E
	OpI64DivS   Opcode = 0x7F
	OpI64DivU   Opcode = 0x80
	OpI64RemS   Opcode = 0x81
	OpI64RemU   Opcode = 0x82
	OpI64And    Opcode = 0x83
	OpI64Or     Opcode = 0x84
	OpI64Xor    Opcode = 0x85
	OpI64Shl    Opcode = 0x86
	OpI64ShrS   Opcode = 0x87
	OpI64ShrU   Opcode = 0x88
	OpI64Rotl   Opcode = 0x89
	OpI64Rotr   Opcode = 0x8A

	OpF32Abs      Opcode = 0x8B
	OpF32Neg      Opcode = 0x8C
	OpF32Ceil     Opcode = 0x8D
	OpF32Floor    Opcode = 0x8E
	OpF32Trunc    Opcode = 0x8F
	OpF32Nearest  Opcode = 0x90
	OpF32Sqrt     Opcode = 0x91
	OpF32Add      Opcode = 0x92
	OpF32Sub      Opcode = 0x93
	OpF32Mul      Opcode = 0x94
	OpF32Div      Opcode = 0x95
	OpF32Min      Opcode = 0x96
	OpF32Max      Opcode = 0x97
	OpF32Copysign Opcode = 0x98

	OpF64Abs      Opcode = 0x99
	OpF64Neg      Opcode = 0x9A
	OpF64Ceil     Opcode = 0x9B
	OpF64Floor    Opcode = 0x9C
	OpF64Trunc    Opcode = 0x9D
	OpF64Nearest  Opcode = 0x9E
	OpF64Sqrt     Opcode = 0x9F
	OpF64Add      Opcode = 0xA0
	OpF64Sub      Opcode = 0xA1
	OpF64Mul      Opcode = 0xA2
	OpF64Div      Opcode = 0xA3
	OpF64Min      Opcode = 0xA4
	OpF64Max      Opcode = 0xA5
	OpF64Copysign Opcode = 0xA6

	OpI32WrapI64        Opcode = 0xA7
	OpI32TruncF32S      Opcode = 0xA8
	OpI32TruncF32U      Opcode = 0xA9
	OpI32TruncF64S      Opcode = 0xAA
	OpI32TruncF64U      Opcode = 0xAB
	OpI64ExtendI32S     Opcode = 0xAC
	OpI64ExtendI32U     Opcode = 0xAD
	OpI64TruncF32S      Opcode = 0xAE
	OpI64TruncF32U      Opcode = 0xAF
	OpI64TruncF64S      Opcode = 0xB0
	OpI64TruncF64U      Opcode = 0xB1
	OpF32ConvertI32S    Opcode = 0xB2
	OpF32ConvertI32U    Opcode = 0xB3
	OpF32ConvertI64S    Opcode = 0xB4
	OpF32ConvertI64U    Opcode = 0xB5
	OpF32DemoteF64      Opcode = 0xB6
	OpF64ConvertI32S    Opcode = 0xB7
	OpF64ConvertI32U    Opcode = 0xB8
	OpF64ConvertI64S    Opcode = 0xB9
	OpF64ConvertI64U    Opcode = 0xBA
	OpF64PromoteF32     Opcode = 0xBB
	OpI32ReinterpretF32 Opcode = 0xBC
	OpI64ReinterpretF64 Opcode = 0xBD
	OpF32ReinterpretI32 Opcode = 0xBE
	OpF64ReinterpretI64 Opcode = 0xBF

	OpI32Extend8S  Opcode = 0xC0
	OpI32Extend16S Opcode = 0xC1
	OpI64Extend8S  Opcode = 0xC2
	OpI64Extend16S Opcode = 0xC3
	OpI64Extend32S Opcode = 0xC4

	OpRefNull   Opcode = 0xD0
	OpRefIsNull Opcode = 0xD1
	OpRefFunc   Opcode = 0xD2
)

// PrefixFC is the byte introducing the two-byte "miscellaneous" opcodes.
const PrefixFC byte = 0xFC

// 0xFC-prefixed opcodes, offset into the 0x100 range.
const (
	opFCBase Opcode = 0x100

	OpI32TruncSatF32S Opcode = opFCBase + 0
	OpI32TruncSatF32U Opcode = opFCBase + 1
	OpI32TruncSatF64S Opcode = opFCBase + 2
	OpI32TruncSatF64U Opcode = opFCBase + 3
	OpI64TruncSatF32S Opcode = opFCBase + 4
	OpI64TruncSatF32U Opcode = opFCBase + 5
	OpI64TruncSatF64S Opcode = opFCBase + 6
	OpI64TruncSatF64U Opcode = opFCBase + 7

	OpMemoryCopy Opcode = opFCBase + 10
	OpMemoryFill Opcode = opFCBase + 11

	// numOpcodes bounds the table: the single-byte page plus the 0xFC
	// page up to its last assigned sub-opcode. ReadOpcode rejects
	// prefixed sub-opcodes past it, so no decoded Opcode wraps uint16.
	numOpcodes = int(OpMemoryFill) + 1
)

// ImmKind describes the immediate operand(s) an instruction carries in
// the binary format. The decoder, validator and compilers all use this
// table to stay in sync about instruction boundaries.
type ImmKind byte

const (
	ImmNone      ImmKind = iota
	ImmBlockType         // block, loop, if: s33 block type
	ImmLabel             // br, br_if: u32 label index
	ImmBrTable           // br_table: vector of labels + default
	ImmFunc              // call, ref.func: u32 function index
	ImmCallInd           // call_indirect: u32 type index + u32 table index
	ImmLocal             // local.get/set/tee: u32 local index
	ImmGlobal            // global.get/set: u32 global index
	ImmMem               // loads/stores: u32 align + u32 offset
	ImmMemOnly           // memory.size/grow: one 0x00 byte
	ImmI32               // i32.const: s32 LEB
	ImmI64               // i64.const: s64 LEB
	ImmF32               // f32.const: 4 bytes LE
	ImmF64               // f64.const: 8 bytes LE
	ImmRefType           // ref.null: heap type byte
	ImmSelectT           // select t*: vector of value types
	ImmTwoMem            // memory.copy: two 0x00 bytes
	ImmOneMem            // memory.fill: one 0x00 byte
)

// opInfo is static per-opcode metadata. The zero value (empty name) is
// an unassigned opcode.
type opInfo struct {
	name string
	imm  ImmKind
	// params and results describe the stack effect of "simple"
	// instructions whose types do not depend on context: params consumed
	// (top of stack last) and results produced. Context-dependent
	// instructions (control flow, locals, calls, parametric) leave both
	// nil, which is what marks them as not simple.
	params  []ValueType
	results []ValueType
}

// opTable is dense: one entry per Opcode value below numOpcodes plus a
// spare zero entry, so the decoder, validator and every compiler reach an
// instruction's metadata with one index instead of a hashed lookup.
var opTable = [numOpcodes + 1]opInfo{
	OpUnreachable:  {name: "unreachable"},
	OpNop:          {name: "nop"},
	OpBlock:        {name: "block", imm: ImmBlockType},
	OpLoop:         {name: "loop", imm: ImmBlockType},
	OpIf:           {name: "if", imm: ImmBlockType},
	OpElse:         {name: "else"},
	OpEnd:          {name: "end"},
	OpBr:           {name: "br", imm: ImmLabel},
	OpBrIf:         {name: "br_if", imm: ImmLabel},
	OpBrTable:      {name: "br_table", imm: ImmBrTable},
	OpReturn:       {name: "return"},
	OpCall:         {name: "call", imm: ImmFunc},
	OpCallIndirect: {name: "call_indirect", imm: ImmCallInd},

	OpDrop:    {name: "drop"},
	OpSelect:  {name: "select"},
	OpSelectT: {name: "select_t", imm: ImmSelectT},

	OpLocalGet:  {name: "local.get", imm: ImmLocal},
	OpLocalSet:  {name: "local.set", imm: ImmLocal},
	OpLocalTee:  {name: "local.tee", imm: ImmLocal},
	OpGlobalGet: {name: "global.get", imm: ImmGlobal},
	OpGlobalSet: {name: "global.set", imm: ImmGlobal},

	OpI32Load:    {name: "i32.load", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I32}},
	OpI64Load:    {name: "i64.load", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpF32Load:    {name: "f32.load", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{F32}},
	OpF64Load:    {name: "f64.load", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{F64}},
	OpI32Load8S:  {name: "i32.load8_s", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Load8U:  {name: "i32.load8_u", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Load16S: {name: "i32.load16_s", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Load16U: {name: "i32.load16_u", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I32}},
	OpI64Load8S:  {name: "i64.load8_s", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64Load8U:  {name: "i64.load8_u", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64Load16S: {name: "i64.load16_s", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64Load16U: {name: "i64.load16_u", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64Load32S: {name: "i64.load32_s", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64Load32U: {name: "i64.load32_u", imm: ImmMem, params: []ValueType{I32}, results: []ValueType{I64}},
	OpI32Store:   {name: "i32.store", imm: ImmMem, params: []ValueType{I32, I32}},
	OpI64Store:   {name: "i64.store", imm: ImmMem, params: []ValueType{I32, I64}},
	OpF32Store:   {name: "f32.store", imm: ImmMem, params: []ValueType{I32, F32}},
	OpF64Store:   {name: "f64.store", imm: ImmMem, params: []ValueType{I32, F64}},
	OpI32Store8:  {name: "i32.store8", imm: ImmMem, params: []ValueType{I32, I32}},
	OpI32Store16: {name: "i32.store16", imm: ImmMem, params: []ValueType{I32, I32}},
	OpI64Store8:  {name: "i64.store8", imm: ImmMem, params: []ValueType{I32, I64}},
	OpI64Store16: {name: "i64.store16", imm: ImmMem, params: []ValueType{I32, I64}},
	OpI64Store32: {name: "i64.store32", imm: ImmMem, params: []ValueType{I32, I64}},
	OpMemorySize: {name: "memory.size", imm: ImmMemOnly, results: []ValueType{I32}},
	OpMemoryGrow: {name: "memory.grow", imm: ImmMemOnly, params: []ValueType{I32}, results: []ValueType{I32}},

	OpI32Const: {name: "i32.const", imm: ImmI32, results: []ValueType{I32}},
	OpI64Const: {name: "i64.const", imm: ImmI64, results: []ValueType{I64}},
	OpF32Const: {name: "f32.const", imm: ImmF32, results: []ValueType{F32}},
	OpF64Const: {name: "f64.const", imm: ImmF64, results: []ValueType{F64}},

	OpI32Eqz: {name: "i32.eqz", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Eq:  {name: "i32.eq", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Ne:  {name: "i32.ne", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32LtS: {name: "i32.lt_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32LtU: {name: "i32.lt_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32GtS: {name: "i32.gt_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32GtU: {name: "i32.gt_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32LeS: {name: "i32.le_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32LeU: {name: "i32.le_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32GeS: {name: "i32.ge_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32GeU: {name: "i32.ge_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},

	OpI64Eqz: {name: "i64.eqz", params: []ValueType{I64}, results: []ValueType{I32}},
	OpI64Eq:  {name: "i64.eq", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64Ne:  {name: "i64.ne", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64LtS: {name: "i64.lt_s", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64LtU: {name: "i64.lt_u", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64GtS: {name: "i64.gt_s", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64GtU: {name: "i64.gt_u", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64LeS: {name: "i64.le_s", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64LeU: {name: "i64.le_u", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64GeS: {name: "i64.ge_s", params: []ValueType{I64, I64}, results: []ValueType{I32}},
	OpI64GeU: {name: "i64.ge_u", params: []ValueType{I64, I64}, results: []ValueType{I32}},

	OpF32Eq: {name: "f32.eq", params: []ValueType{F32, F32}, results: []ValueType{I32}},
	OpF32Ne: {name: "f32.ne", params: []ValueType{F32, F32}, results: []ValueType{I32}},
	OpF32Lt: {name: "f32.lt", params: []ValueType{F32, F32}, results: []ValueType{I32}},
	OpF32Gt: {name: "f32.gt", params: []ValueType{F32, F32}, results: []ValueType{I32}},
	OpF32Le: {name: "f32.le", params: []ValueType{F32, F32}, results: []ValueType{I32}},
	OpF32Ge: {name: "f32.ge", params: []ValueType{F32, F32}, results: []ValueType{I32}},

	OpF64Eq: {name: "f64.eq", params: []ValueType{F64, F64}, results: []ValueType{I32}},
	OpF64Ne: {name: "f64.ne", params: []ValueType{F64, F64}, results: []ValueType{I32}},
	OpF64Lt: {name: "f64.lt", params: []ValueType{F64, F64}, results: []ValueType{I32}},
	OpF64Gt: {name: "f64.gt", params: []ValueType{F64, F64}, results: []ValueType{I32}},
	OpF64Le: {name: "f64.le", params: []ValueType{F64, F64}, results: []ValueType{I32}},
	OpF64Ge: {name: "f64.ge", params: []ValueType{F64, F64}, results: []ValueType{I32}},

	OpI32Clz:    {name: "i32.clz", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Ctz:    {name: "i32.ctz", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Popcnt: {name: "i32.popcnt", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Add:    {name: "i32.add", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Sub:    {name: "i32.sub", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Mul:    {name: "i32.mul", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32DivS:   {name: "i32.div_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32DivU:   {name: "i32.div_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32RemS:   {name: "i32.rem_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32RemU:   {name: "i32.rem_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32And:    {name: "i32.and", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Or:     {name: "i32.or", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Xor:    {name: "i32.xor", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Shl:    {name: "i32.shl", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32ShrS:   {name: "i32.shr_s", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32ShrU:   {name: "i32.shr_u", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Rotl:   {name: "i32.rotl", params: []ValueType{I32, I32}, results: []ValueType{I32}},
	OpI32Rotr:   {name: "i32.rotr", params: []ValueType{I32, I32}, results: []ValueType{I32}},

	OpI64Clz:    {name: "i64.clz", params: []ValueType{I64}, results: []ValueType{I64}},
	OpI64Ctz:    {name: "i64.ctz", params: []ValueType{I64}, results: []ValueType{I64}},
	OpI64Popcnt: {name: "i64.popcnt", params: []ValueType{I64}, results: []ValueType{I64}},
	OpI64Add:    {name: "i64.add", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Sub:    {name: "i64.sub", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Mul:    {name: "i64.mul", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64DivS:   {name: "i64.div_s", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64DivU:   {name: "i64.div_u", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64RemS:   {name: "i64.rem_s", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64RemU:   {name: "i64.rem_u", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64And:    {name: "i64.and", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Or:     {name: "i64.or", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Xor:    {name: "i64.xor", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Shl:    {name: "i64.shl", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64ShrS:   {name: "i64.shr_s", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64ShrU:   {name: "i64.shr_u", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Rotl:   {name: "i64.rotl", params: []ValueType{I64, I64}, results: []ValueType{I64}},
	OpI64Rotr:   {name: "i64.rotr", params: []ValueType{I64, I64}, results: []ValueType{I64}},

	OpF32Abs:      {name: "f32.abs", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Neg:      {name: "f32.neg", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Ceil:     {name: "f32.ceil", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Floor:    {name: "f32.floor", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Trunc:    {name: "f32.trunc", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Nearest:  {name: "f32.nearest", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Sqrt:     {name: "f32.sqrt", params: []ValueType{F32}, results: []ValueType{F32}},
	OpF32Add:      {name: "f32.add", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Sub:      {name: "f32.sub", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Mul:      {name: "f32.mul", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Div:      {name: "f32.div", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Min:      {name: "f32.min", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Max:      {name: "f32.max", params: []ValueType{F32, F32}, results: []ValueType{F32}},
	OpF32Copysign: {name: "f32.copysign", params: []ValueType{F32, F32}, results: []ValueType{F32}},

	OpF64Abs:      {name: "f64.abs", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Neg:      {name: "f64.neg", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Ceil:     {name: "f64.ceil", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Floor:    {name: "f64.floor", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Trunc:    {name: "f64.trunc", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Nearest:  {name: "f64.nearest", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Sqrt:     {name: "f64.sqrt", params: []ValueType{F64}, results: []ValueType{F64}},
	OpF64Add:      {name: "f64.add", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Sub:      {name: "f64.sub", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Mul:      {name: "f64.mul", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Div:      {name: "f64.div", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Min:      {name: "f64.min", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Max:      {name: "f64.max", params: []ValueType{F64, F64}, results: []ValueType{F64}},
	OpF64Copysign: {name: "f64.copysign", params: []ValueType{F64, F64}, results: []ValueType{F64}},

	OpI32WrapI64:        {name: "i32.wrap_i64", params: []ValueType{I64}, results: []ValueType{I32}},
	OpI32TruncF32S:      {name: "i32.trunc_f32_s", params: []ValueType{F32}, results: []ValueType{I32}},
	OpI32TruncF32U:      {name: "i32.trunc_f32_u", params: []ValueType{F32}, results: []ValueType{I32}},
	OpI32TruncF64S:      {name: "i32.trunc_f64_s", params: []ValueType{F64}, results: []ValueType{I32}},
	OpI32TruncF64U:      {name: "i32.trunc_f64_u", params: []ValueType{F64}, results: []ValueType{I32}},
	OpI64ExtendI32S:     {name: "i64.extend_i32_s", params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64ExtendI32U:     {name: "i64.extend_i32_u", params: []ValueType{I32}, results: []ValueType{I64}},
	OpI64TruncF32S:      {name: "i64.trunc_f32_s", params: []ValueType{F32}, results: []ValueType{I64}},
	OpI64TruncF32U:      {name: "i64.trunc_f32_u", params: []ValueType{F32}, results: []ValueType{I64}},
	OpI64TruncF64S:      {name: "i64.trunc_f64_s", params: []ValueType{F64}, results: []ValueType{I64}},
	OpI64TruncF64U:      {name: "i64.trunc_f64_u", params: []ValueType{F64}, results: []ValueType{I64}},
	OpF32ConvertI32S:    {name: "f32.convert_i32_s", params: []ValueType{I32}, results: []ValueType{F32}},
	OpF32ConvertI32U:    {name: "f32.convert_i32_u", params: []ValueType{I32}, results: []ValueType{F32}},
	OpF32ConvertI64S:    {name: "f32.convert_i64_s", params: []ValueType{I64}, results: []ValueType{F32}},
	OpF32ConvertI64U:    {name: "f32.convert_i64_u", params: []ValueType{I64}, results: []ValueType{F32}},
	OpF32DemoteF64:      {name: "f32.demote_f64", params: []ValueType{F64}, results: []ValueType{F32}},
	OpF64ConvertI32S:    {name: "f64.convert_i32_s", params: []ValueType{I32}, results: []ValueType{F64}},
	OpF64ConvertI32U:    {name: "f64.convert_i32_u", params: []ValueType{I32}, results: []ValueType{F64}},
	OpF64ConvertI64S:    {name: "f64.convert_i64_s", params: []ValueType{I64}, results: []ValueType{F64}},
	OpF64ConvertI64U:    {name: "f64.convert_i64_u", params: []ValueType{I64}, results: []ValueType{F64}},
	OpF64PromoteF32:     {name: "f64.promote_f32", params: []ValueType{F32}, results: []ValueType{F64}},
	OpI32ReinterpretF32: {name: "i32.reinterpret_f32", params: []ValueType{F32}, results: []ValueType{I32}},
	OpI64ReinterpretF64: {name: "i64.reinterpret_f64", params: []ValueType{F64}, results: []ValueType{I64}},
	OpF32ReinterpretI32: {name: "f32.reinterpret_i32", params: []ValueType{I32}, results: []ValueType{F32}},
	OpF64ReinterpretI64: {name: "f64.reinterpret_i64", params: []ValueType{I64}, results: []ValueType{F64}},

	OpI32Extend8S:  {name: "i32.extend8_s", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI32Extend16S: {name: "i32.extend16_s", params: []ValueType{I32}, results: []ValueType{I32}},
	OpI64Extend8S:  {name: "i64.extend8_s", params: []ValueType{I64}, results: []ValueType{I64}},
	OpI64Extend16S: {name: "i64.extend16_s", params: []ValueType{I64}, results: []ValueType{I64}},
	OpI64Extend32S: {name: "i64.extend32_s", params: []ValueType{I64}, results: []ValueType{I64}},

	OpRefNull:   {name: "ref.null", imm: ImmRefType},
	OpRefIsNull: {name: "ref.is_null"},
	OpRefFunc:   {name: "ref.func", imm: ImmFunc},

	OpI32TruncSatF32S: {name: "i32.trunc_sat_f32_s", params: []ValueType{F32}, results: []ValueType{I32}},
	OpI32TruncSatF32U: {name: "i32.trunc_sat_f32_u", params: []ValueType{F32}, results: []ValueType{I32}},
	OpI32TruncSatF64S: {name: "i32.trunc_sat_f64_s", params: []ValueType{F64}, results: []ValueType{I32}},
	OpI32TruncSatF64U: {name: "i32.trunc_sat_f64_u", params: []ValueType{F64}, results: []ValueType{I32}},
	OpI64TruncSatF32S: {name: "i64.trunc_sat_f32_s", params: []ValueType{F32}, results: []ValueType{I64}},
	OpI64TruncSatF32U: {name: "i64.trunc_sat_f32_u", params: []ValueType{F32}, results: []ValueType{I64}},
	OpI64TruncSatF64S: {name: "i64.trunc_sat_f64_s", params: []ValueType{F64}, results: []ValueType{I64}},
	OpI64TruncSatF64U: {name: "i64.trunc_sat_f64_u", params: []ValueType{F64}, results: []ValueType{I64}},

	OpMemoryCopy: {name: "memory.copy", imm: ImmTwoMem, params: []ValueType{I32, I32, I32}},
	OpMemoryFill: {name: "memory.fill", imm: ImmOneMem, params: []ValueType{I32, I32, I32}},
}

// info returns op's table entry; every value outside the table shares
// the spare, never-assigned last slot.
func (op Opcode) info() *opInfo {
	if int(op) > numOpcodes {
		op = Opcode(numOpcodes)
	}
	return &opTable[op]
}

// Known reports whether op is an opcode this implementation supports.
func (op Opcode) Known() bool { return op.info().name != "" }

// Imm returns the immediate kind of op (ImmNone for unknown opcodes).
func (op Opcode) Imm() ImmKind { return op.info().imm }

// Sig returns the static stack signature of a "simple" instruction, or
// (nil, nil, false) for context-dependent instructions such as control
// flow, locals, globals and calls.
func (op Opcode) Sig() (params, results []ValueType, ok bool) {
	info := op.info()
	return info.params, info.results, info.params != nil || info.results != nil
}

// Shape is an opcode's Imm and, for a simple instruction, its Sig,
// packed in eight bytes. A validating walk looks one up per instruction,
// and opTable's 72-byte entries (names, slices) would crowd it out of
// cache.
type Shape struct {
	Imm      ImmKind
	Simple   bool
	NParams  uint8
	Params   [3]ValueType // no simple instruction takes more
	NResults uint8
	Result   ValueType // the single result, when NResults is 1
}

// shapes packs opTable entry for entry.
var shapes = func() (t [numOpcodes + 1]Shape) {
	for i := range opTable {
		info, s := &opTable[i], &t[i]
		s.Imm = info.imm
		if s.Simple = info.params != nil || info.results != nil; s.Simple {
			s.NParams, s.NResults = uint8(copy(s.Params[:], info.params)), uint8(len(info.results))
			if len(info.results) == 1 {
				s.Result = info.results[0]
			}
		}
	}
	return t
}()

// Shape returns op's packed shape; like info, every value outside the
// table shares the spare last slot.
func (op Opcode) Shape() *Shape {
	if int(op) > numOpcodes {
		op = Opcode(numOpcodes)
	}
	return &shapes[op]
}

func (op Opcode) String() string {
	if name := op.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("opcode(0x%x)", uint16(op))
}

// IsPure reports whether the instruction has no side effects and cannot
// trap, so a compiler that tracks constants may evaluate it at compile
// time (the paper's constant-folding optimization, feature "KF").
func (op Opcode) IsPure() bool {
	switch op {
	case OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU,
		OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU,
		OpI32TruncF32S, OpI32TruncF32U, OpI32TruncF64S, OpI32TruncF64U,
		OpI64TruncF32S, OpI64TruncF32U, OpI64TruncF64S, OpI64TruncF64U:
		// These can trap; folding them would need trap-at-compile
		// semantics, which single-pass compilers do not attempt.
		return false
	}
	_, _, simple := op.Sig()
	return simple
}
