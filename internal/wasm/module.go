package wasm

import "fmt"

// FuncType is a function signature.
type FuncType struct {
	Params  []ValueType
	Results []ValueType
}

// Equal reports signature equality (used by call_indirect checks).
func (t FuncType) Equal(o FuncType) bool {
	if len(t.Params) != len(o.Params) || len(t.Results) != len(o.Results) {
		return false
	}
	for i, p := range t.Params {
		if o.Params[i] != p {
			return false
		}
	}
	for i, r := range t.Results {
		if o.Results[i] != r {
			return false
		}
	}
	return true
}

func (t FuncType) String() string {
	s := "("
	for i, p := range t.Params {
		if i > 0 {
			s += " "
		}
		s += p.String()
	}
	s += ") -> ("
	for i, r := range t.Results {
		if i > 0 {
			s += " "
		}
		s += r.String()
	}
	return s + ")"
}

// Limits bound a memory or table size, in pages or elements.
type Limits struct {
	Min    uint32
	Max    uint32
	HasMax bool
}

// ImportKind discriminates import/export descriptors. It doubles as the
// extern kind of the embedding API: the four kinds of external values a
// module can import or export (functions, tables, memories, globals).
type ImportKind byte

const (
	ImportFunc ImportKind = iota
	ImportTable
	ImportMemory
	ImportGlobal
)

// ExternKind is the embedding-API name for ImportKind: linkers resolve
// imports to external values of these kinds.
type ExternKind = ImportKind

// Extern kind aliases for embedding-API readability.
const (
	ExternFunc   = ImportFunc
	ExternTable  = ImportTable
	ExternMemory = ImportMemory
	ExternGlobal = ImportGlobal
)

func (k ImportKind) String() string {
	switch k {
	case ImportFunc:
		return "function"
	case ImportTable:
		return "table"
	case ImportMemory:
		return "memory"
	case ImportGlobal:
		return "global"
	}
	return fmt.Sprintf("externkind(%d)", byte(k))
}

// Import is a module import.
type Import struct {
	Module string
	Name   string
	Kind   ImportKind
	// Type index for ImportFunc.
	TypeIdx uint32
	// Limits for ImportTable / ImportMemory.
	Lim Limits
	// Global descriptor for ImportGlobal.
	GlobalType ValueType
	Mutable    bool
}

// Global is a module-defined global variable with a constant initializer.
type Global struct {
	Type    ValueType
	Mutable bool
	// Init is the evaluated constant initializer (constant expressions
	// in this subset are a single const/ref.null/ref.func instruction).
	Init Value
}

// Table holds funcref elements for call_indirect.
type Table struct {
	Lim Limits
}

// Elem is an active element segment initializing a table.
type Elem struct {
	TableIdx uint32
	Offset   uint32
	Funcs    []uint32
}

// Data is an active data segment initializing memory.
type Data struct {
	MemIdx uint32
	Offset uint32
	Bytes  []byte
}

// Export names a module item.
type Export struct {
	Name string
	Kind ImportKind
	Idx  uint32
}

// Func is a module-defined function body.
type Func struct {
	TypeIdx uint32
	// Locals are the declared (non-parameter) locals, expanded.
	Locals []ValueType
	// Body is the raw bytecode of the function body including the
	// trailing end opcode. Offsets into Body are the bytecode offsets
	// ("pc") used by the interpreter, the sidetable, probes, and the
	// pc tables of compiled code.
	Body []byte
	// BodyOffset is the offset of Body[0] within the original module
	// bytes, for diagnostics.
	BodyOffset int
}

// Module is a decoded WebAssembly module.
type Module struct {
	Types   []FuncType
	Imports []Import
	// Funcs holds the module-defined functions; function index space is
	// [imported funcs..., module funcs...].
	Funcs    []Func
	Tables   []Table
	Memories []Limits
	Globals  []Global
	Exports  []Export
	Elems    []Elem
	Datas    []Data
	Start    uint32
	HasStart bool
	// Names from the custom name section, if present (func index → name).
	Names map[uint32]string
	// Size is the byte length of the original encoded module, used to
	// normalize compile time per input byte.
	Size int
}

// NumImportedFuncs returns how many functions are imported; they occupy
// the low function indices.
func (m *Module) NumImportedFuncs() int { return m.numImported(ImportFunc) }

// FuncTypeAt returns the signature of function index idx spanning both
// imported and module-defined functions.
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	imported := 0
	for _, imp := range m.Imports {
		if imp.Kind != ImportFunc {
			continue
		}
		if uint32(imported) == idx {
			if int(imp.TypeIdx) >= len(m.Types) {
				return FuncType{}, fmt.Errorf("wasm: import type index %d out of range", imp.TypeIdx)
			}
			return m.Types[imp.TypeIdx], nil
		}
		imported++
	}
	local := int(idx) - imported
	if local < 0 || local >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", idx)
	}
	ti := m.Funcs[local].TypeIdx
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wasm: type index %d out of range", ti)
	}
	return m.Types[ti], nil
}

// GlobalTypeAt returns the type and mutability of global index idx,
// spanning imported and module-defined globals.
func (m *Module) GlobalTypeAt(idx uint32) (ValueType, bool, error) {
	imported := 0
	for _, imp := range m.Imports {
		if imp.Kind != ImportGlobal {
			continue
		}
		if uint32(imported) == idx {
			return imp.GlobalType, imp.Mutable, nil
		}
		imported++
	}
	local := int(idx) - imported
	if local < 0 || local >= len(m.Globals) {
		return 0, false, fmt.Errorf("wasm: global index %d out of range", idx)
	}
	g := m.Globals[local]
	return g.Type, g.Mutable, nil
}

// NumGlobals returns the total number of globals (imported + defined).
func (m *Module) NumGlobals() int {
	return m.NumImportedGlobals() + len(m.Globals)
}

// NumFuncs returns the total number of functions (imported + defined).
func (m *Module) NumFuncs() int {
	return m.NumImportedFuncs() + len(m.Funcs)
}

// numImported counts imports of one kind; they occupy the low indices of
// the corresponding index space.
func (m *Module) numImported(kind ImportKind) int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == kind {
			n++
		}
	}
	return n
}

// NumImportedGlobals returns how many globals are imported.
func (m *Module) NumImportedGlobals() int { return m.numImported(ImportGlobal) }

// NumImportedTables returns how many tables are imported.
func (m *Module) NumImportedTables() int { return m.numImported(ImportTable) }

// NumImportedMemories returns how many memories are imported.
func (m *Module) NumImportedMemories() int { return m.numImported(ImportMemory) }

// MemoryMinPages returns the declared minimum page count of the
// module's memory (imported or defined), or 0 when the module has no
// memory. Linking enforces the minimum on imported memories and
// memory.grow never shrinks, so any address below MemoryMinPages()*
// PageSize is in bounds for the module's whole lifetime.
func (m *Module) MemoryMinPages() uint32 {
	for _, imp := range m.Imports {
		if imp.Kind == ImportMemory {
			return imp.Lim.Min
		}
	}
	if len(m.Memories) > 0 {
		return m.Memories[0].Min
	}
	return 0
}

// NumMemories returns the total number of memories (imported + defined).
// The MVP subset allows at most one.
func (m *Module) NumMemories() int {
	return m.NumImportedMemories() + len(m.Memories)
}

// NumTables returns the total number of tables (imported + defined).
func (m *Module) NumTables() int {
	return m.NumImportedTables() + len(m.Tables)
}

// ExportedFunc looks up an exported function index by name.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ImportFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// FuncName returns a printable name for function idx.
func (m *Module) FuncName(idx uint32) string {
	if n, ok := m.Names[idx]; ok {
		return n
	}
	for _, e := range m.Exports {
		if e.Kind == ImportFunc && e.Idx == idx {
			return e.Name
		}
	}
	return fmt.Sprintf("func%d", idx)
}

// LocalFunc returns the module-defined function with overall index idx.
func (m *Module) LocalFunc(idx uint32) (*Func, bool) {
	local := int(idx) - m.NumImportedFuncs()
	if local < 0 || local >= len(m.Funcs) {
		return nil, false
	}
	return &m.Funcs[local], true
}

// PageSize is the Wasm linear memory page size.
const PageSize = 65536

// MaxPages caps memory at 4 GiB as in the spec; engines in this repo
// clamp further to keep benchmarks laptop-sized.
const MaxPages = 65536
