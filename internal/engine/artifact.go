package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"wizgo/internal/analysis"
	"wizgo/internal/codecache"
	"wizgo/internal/mach"
	"wizgo/internal/rewriter"
	"wizgo/internal/telemetry"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
)

// CompilerRevision stamps every persisted artifact. Bump it whenever
// compiled output or its stored form changes shape or meaning — new
// opcodes, changed frame layout, changed sidetable semantics, a changed
// record encoding, a field added to or dropped from the payload — and
// every stale artifact in every cache directory is evicted on its next
// load instead of executing under wrong assumptions.
// TestArtifactFormatPinned holds the encoding of one module per payload
// shape to the revision. The analysis version is folded in because the
// serialized read-only bit licenses skipping the memory reset: an
// artifact produced under different analysis rules must self-invalidate.
const CompilerRevision = "wizgo-codegen-6+analysis-" + analysis.Version

// DiskStamp returns the producer identity for this build: the host ISA
// (MachCode is portable, but a real JIT cache is ISA-keyed, and keeping
// the discipline costs nothing) and the compiler revision.
func DiskStamp() codecache.Stamp {
	return codecache.Stamp{
		ISA:              runtime.GOARCH + "/machcode",
		CompilerRevision: CompilerRevision,
	}
}

// OpenDiskCache opens (creating if needed) a persistent artifact store
// at dir, stamped for this build. Plug the result into Config.DiskCache
// and a cold process's first Compile of a previously seen module loads
// the artifact instead of running the compiler.
func OpenDiskCache(dir string) (*codecache.DiskStore, error) {
	return codecache.OpenDisk(dir, codecache.DiskOptions{Stamp: DiskStamp()})
}

// Per-function code sections carry a kind tag so decode can rebuild the
// right concrete executor type.
const (
	codeKindNil      = 0 // function not eagerly compiled (interp/lazy)
	codeKindMach     = 1 // *mach.Code: SPC, copy-and-patch and opt tiers
	codeKindRewriter = 2 // *rewriter.Code: rewriting-interpreter tiers
)

// errUncacheableCode reports a tier whose code objects the artifact
// format cannot represent; the module then stays memory-cached only.
var errUncacheableCode = errors.New("engine: code type has no artifact serialization")

// encodeArtifact serializes a compiled module into the disk-cache
// payload: the validation output of every local function (sidetable,
// max stack height, read-only bit) and its compiled code section. It
// holds only what is expensive to recompute. The module bytes are not
// stored — the cache key is their content hash, so whoever asks for
// this artifact already holds them — and neither is anything decoding
// them yields: the module structure and each function's frame.
func encodeArtifact(cm *CompiledModule) ([]byte, error) {
	// Section headers carry exact bulk totals so the decoder can
	// allocate each kind of storage once, up front, and sub-slice per
	// function (see mach.DecodeArena): a cold process's rehydration
	// cost is mostly allocation, and scattered small makes fault in
	// heap spans one by one.
	totST := 0
	for i := range cm.Infos {
		totST += len(cm.Infos[i].Sidetable)
	}
	var nMach, machInstrs, machTypes int
	var nRw, rwInstrs, rwTypes int
	for _, code := range cm.Codes {
		switch c := code.(type) {
		case *mach.Code:
			nMach++
			machInstrs += len(c.Instrs)
			machTypes += len(c.LocalTypes)
		case *rewriter.Code:
			nRw++
			rwInstrs += len(c.Instrs)
			rwTypes += len(c.LocalTypes)
		}
	}
	// The same totals size the writer: a record averages 4-5 bytes, a
	// function's headers a few dozen. An underestimate only costs an
	// append growth.
	w := wbin.NewWriter(64 + 48*len(cm.Infos) + 6*(totST+machInstrs+rwInstrs) + machTypes + rwTypes)

	w.Uvarint(uint64(len(cm.Infos)))
	w.Uvarint(uint64(totST))
	for i := range cm.Infos {
		if err := encodeFuncInfo(w, &cm.Infos[i]); err != nil {
			return nil, err
		}
	}

	if cm.Codes == nil {
		w.Bool(false)
		return w.Bytes(), nil
	}
	w.Bool(true)
	for _, n := range []int{nMach, machInstrs, machTypes, nRw, rwInstrs, rwTypes} {
		w.Uvarint(uint64(n))
	}
	w.Uvarint(uint64(len(cm.Codes)))
	for _, code := range cm.Codes {
		switch c := code.(type) {
		case nil:
			w.U8(codeKindNil)
		case *mach.Code:
			w.U8(codeKindMach)
			if err := c.AppendTo(w); err != nil {
				return nil, err
			}
		case *rewriter.Code:
			w.U8(codeKindRewriter)
			if err := c.AppendTo(w); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: %T", errUncacheableCode, code)
		}
	}
	return w.Bytes(), nil
}

// decodeArtifact rebuilds a CompiledModule from module bytes plus a
// verified artifact payload. It begins as compile does — decode the
// bytes, run the module-level checks — so the structure served is
// always the module's own, whatever a payload claims; each function's
// frame follows from the decoded module. Then, in place of validating
// and compiling the bodies, it reads the sidetables and the code
// sections the payload carries, which materialize directly as executor
// objects. This is the zero-compile cold-start path.
func (e *Engine) decodeArtifact(bytes []byte, payload []byte) (*CompiledModule, error) {
	t1 := time.Now()
	m, err := wasm.Decode(bytes)
	if err != nil {
		return nil, err
	}
	if err := validate.ModuleLevel(m); err != nil {
		return nil, err
	}
	r := wbin.NewReader(payload)
	nInfos := r.Count(1)
	if r.Err() == nil && nInfos != len(m.Funcs) {
		return nil, fmt.Errorf("engine: artifact has %d function infos, module has %d functions",
			nInfos, len(m.Funcs))
	}
	// The sidetable total comes from the section header, validated
	// against the remaining payload (Count) so a corrupt total cannot
	// provoke a runaway allocation; a lying total merely exhausts the
	// arena and the decoder falls back to plain makes.
	totST := r.Count(wbin.MinRecordLen)
	ia := infoArena{
		st:     make([]validate.SidetableEntry, 0, totST),
		owners: make([]uint32, 0, totST),
	}
	// Every frame's local types are carved from one block.
	nLocals := 0
	for i := range m.Funcs {
		nLocals += len(m.Types[m.Funcs[i].TypeIdx].Params) + len(m.Funcs[i].Locals)
	}
	frames := make([]wasm.ValueType, nLocals)
	infos := make([]validate.FuncInfo, nInfos)
	for i := range infos {
		infos[i] = validate.Frame(m, &m.Funcs[i], frames)
		frames = frames[len(infos[i].LocalTypes):]
		if err := decodeFuncInfo(r, &infos[i], &ia); err != nil {
			return nil, err
		}
	}

	cm := &CompiledModule{
		engine: e, Module: m, Infos: infos, lazy: e.lazyTable(len(m.Funcs)),
		Timings:  Timings{ModuleBytes: len(bytes)},
		Analysis: analysis.StatsFromInfos(infos),
	}

	if hasCodes := r.Bool(); hasCodes {
		// Count-validated totals size the per-kind arenas; an instr
		// record is at least MinRecordLen bytes on disk, which bounds
		// the arena against the payload even for corrupt totals.
		nMach, machInstrs, machTypes := r.Count(1), r.Count(wbin.MinRecordLen), r.Count(1)
		nRw, rwInstrs, rwTypes := r.Count(1), r.Count(wbin.MinRecordLen), r.Count(1)
		var machArena *mach.DecodeArena
		var rwArena *rewriter.DecodeArena
		if r.Err() == nil {
			if nMach > 0 {
				machArena = mach.NewDecodeArena(nMach, machInstrs, machTypes)
			}
			if nRw > 0 {
				rwArena = rewriter.NewDecodeArena(nRw, rwInstrs, rwTypes)
			}
		}
		nCodes := r.Count(1)
		if r.Err() == nil && nCodes != len(m.Funcs) {
			return nil, fmt.Errorf("engine: artifact has %d code sections, module has %d functions",
				nCodes, len(m.Funcs))
		}
		codes := make([]Code, nCodes)
		for i := range codes {
			switch kind := r.U8(); kind {
			case codeKindNil:
			case codeKindMach:
				c, err := mach.DecodeCode(r, machArena)
				if err != nil {
					return nil, err
				}
				codes[i] = c
				cm.Timings.CodeBytes += c.Bytes()
			case codeKindRewriter:
				c, err := rewriter.DecodeCode(r, rwArena)
				if err != nil {
					return nil, err
				}
				codes[i] = c
				cm.Timings.CodeBytes += c.Bytes()
			default:
				return nil, fmt.Errorf("engine: unknown artifact code kind %d", kind)
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
		}
		cm.Codes = codes
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	cm.Timings.Rehydrate = time.Since(t1)
	hRehydrate.Observe(cm.Timings.Rehydrate)
	if tr := telemetry.DefaultTracer(); tr.Enabled() {
		tr.Record(telemetry.StageCacheDisk, "rehydrate", t1, cm.Timings.Rehydrate, "")
	}
	return cm, nil
}

// encodeFuncInfo serializes the part of one function's validation
// output that decoding the module does not give back — the sidetable,
// the max stack height and the read-only bit — so a disk load skips
// the validation pass and the analysis. A sidetable entry is one
// compact record (see wbin.Record) — TargetIP leading, then TargetSTP,
// ValCount, PopCount — with its owner's bytecode offset as the
// delta-coded side value; for interpreter tiers the sidetable IS the
// artifact, so this is their whole cold-start decode cost.
func encodeFuncInfo(w *wbin.Writer, fi *validate.FuncInfo) error {
	if len(fi.Owners) != len(fi.Sidetable) {
		return fmt.Errorf("engine: sidetable has %d owners for %d entries", len(fi.Owners), len(fi.Sidetable))
	}
	w.Uvarint(uint64(len(fi.Sidetable)))
	prev := uint32(0)
	for i, st := range fi.Sidetable {
		owner := fi.Owners[i]
		w.Record(uint64(st.TargetIP), int32(st.TargetSTP), int32(st.ValCount), int32(st.PopCount), 0, int32(owner-prev))
		prev = owner
	}
	w.Uvarint(uint64(fi.MaxStack))
	w.Bool(fi.ReadOnly)
	return nil
}

// infoArena holds the artifact-wide bulk storage for sidetable
// decoding, sized from the section header's total; see
// mach.DecodeArena for the rationale. Exhaustion (a lying total) falls
// back to plain allocation.
type infoArena struct {
	st     []validate.SidetableEntry
	owners []uint32
}

func (a *infoArena) takeST(n int) []validate.SidetableEntry {
	if len(a.st)+n > cap(a.st) {
		return make([]validate.SidetableEntry, n)
	}
	s := a.st[len(a.st) : len(a.st)+n]
	a.st = a.st[:len(a.st)+n]
	return s
}

func (a *infoArena) takeOwners(n int) []uint32 {
	if len(a.owners)+n > cap(a.owners) {
		return make([]uint32, n)
	}
	s := a.owners[len(a.owners) : len(a.owners)+n]
	a.owners = a.owners[:len(a.owners)+n]
	return s
}

// decodeFuncInfo reads into fi, whose frame is already set, what
// encodeFuncInfo wrote.
func decodeFuncInfo(r *wbin.Reader, fi *validate.FuncInfo, arena *infoArena) error {
	if nST := r.Count(wbin.MinRecordLen); nST > 0 {
		fi.Sidetable = arena.takeST(nST)
		fi.Owners = arena.takeOwners(nST)
		owner := uint32(0)
		for i := range fi.Sidetable {
			ip, stp, val, pop, _, d := r.Record()
			if ip > math.MaxUint32 {
				return fmt.Errorf("engine: artifact sidetable target %d out of range", ip)
			}
			owner += uint32(d)
			st := &fi.Sidetable[i]
			st.TargetIP, st.TargetSTP, st.ValCount, st.PopCount = uint32(ip), uint32(stp), uint32(val), uint32(pop)
			fi.Owners[i] = owner
		}
	}
	fi.MaxStack = int(r.Uvarint())
	// The read-only bit rides in the artifact so a disk-cache load keeps
	// the reset skip without rerunning the analysis.
	fi.ReadOnly = r.Bool()
	return r.Err()
}
