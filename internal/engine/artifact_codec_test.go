package engine_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"wizgo/internal/codecache"
	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/mach"
	"wizgo/internal/rewriter"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// normInfo and normCode map every empty slice and map the codec may
// hand back as nil (or the compilers as empty) onto nil, so DeepEqual
// compares contents. NoWrites and Callees are the validator's notes for
// the analysis and are deliberately not part of an artifact.
func normInfo(fi validate.FuncInfo) validate.FuncInfo {
	fi.NoWrites, fi.Callees = false, nil
	if len(fi.Sidetable) == 0 {
		fi.Sidetable, fi.Owners = nil, nil
	}
	if len(fi.Results) == 0 {
		fi.Results = nil
	}
	if len(fi.LocalTypes) == 0 {
		fi.LocalTypes = nil
	}
	return fi
}

func normCode(c engine.Code) engine.Code {
	switch c := c.(type) {
	case *mach.Code:
		n := *c
		if len(n.OSREntries) == 0 {
			n.OSREntries = nil
		}
		if len(n.Tables) == 0 {
			n.Tables = nil
		}
		if len(n.Stackmaps) == 0 {
			n.Stackmaps = nil
		}
		if len(n.LocalTypes) == 0 {
			n.LocalTypes = nil
		}
		return &n
	case *rewriter.Code:
		n := *c
		if len(n.Tables) == 0 {
			n.Tables = nil
		}
		if len(n.LocalTypes) == 0 {
			n.LocalTypes = nil
		}
		return &n
	}
	return c
}

// TestArtifactRoundTrip: for every catalog configuration, over the 78
// suite modules and the benchmark's compile-wide shape, encode → decode
// → encode is byte-identical and every decoded code object and FuncInfo
// equals the one the compiler produced. This is what licenses serving
// rehydrated code as if it were freshly compiled.
func TestArtifactRoundTrip(t *testing.T) {
	type mod struct {
		name  string
		bytes []byte
	}
	mods := []mod{{"compile-wide/24", wideModule(24)}}
	for _, it := range workloads.All() {
		mods = append(mods, mod{it.Suite + "/" + it.Name, it.Bytes})
	}
	if len(mods) != 79 {
		t.Fatalf("%d modules, want the 78 suite items and compile-wide", len(mods))
	}
	for _, cfg := range engines.Catalog() {
		e := engine.New(cfg, nil)
		var total, code int
		for _, m := range mods {
			cm, err := e.Compile(m.bytes)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, m.name, err)
			}
			enc, err := engine.EncodeArtifact(cm)
			if err != nil {
				t.Fatalf("%s %s: encode: %v", cfg.Name, m.name, err)
			}
			enc = append([]byte(nil), enc...)
			got, err := e.DecodeArtifact(m.bytes, enc)
			if err != nil {
				t.Fatalf("%s %s: decode: %v", cfg.Name, m.name, err)
			}
			again, err := engine.EncodeArtifact(got)
			if err != nil || !bytes.Equal(again, enc) {
				t.Errorf("%s %s: re-encoding differs (%d vs %d bytes, err %v)", cfg.Name, m.name, len(again), len(enc), err)
			}
			if len(got.Infos) != len(cm.Infos) || len(got.Codes) != len(cm.Codes) {
				t.Fatalf("%s %s: %d infos / %d codes, want %d / %d", cfg.Name, m.name,
					len(got.Infos), len(got.Codes), len(cm.Infos), len(cm.Codes))
			}
			for i := range cm.Infos {
				if g, w := normInfo(got.Infos[i]), normInfo(cm.Infos[i]); !reflect.DeepEqual(g, w) {
					t.Errorf("%s %s: func %d info\n got %+v\nwant %+v", cfg.Name, m.name, i, g, w)
				}
			}
			for i := range cm.Codes {
				if g, w := normCode(got.Codes[i]), normCode(cm.Codes[i]); !reflect.DeepEqual(g, w) {
					t.Errorf("%s %s: func %d code\n got %+v\nwant %+v", cfg.Name, m.name, i, g, w)
				}
			}
			total += len(enc)
			code += cm.Timings.CodeBytes
		}
		t.Logf("%s: %d artifact bytes for %d code bytes over %d modules", cfg.Name, total, code, len(mods))
	}
}

// hostileModule has every control transfer mach code can name: a loop
// (fused compare-and-branch), an if-else (jump) and a br_table.
func hostileModule() []byte {
	b := wasm.NewBuilder()
	f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I32}})
	acc := f.AddLocal(wasm.I32)
	i := f.AddLocal(wasm.I32)
	workloads.ForI32Func(f, i, 0, 10, func() {
		f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalGet(0).Op(wasm.OpI32Add).LocalSet(acc)
	})
	f.LocalGet(0).If(wasm.BlockEmpty)
	f.LocalGet(acc).I32Const(1000).Op(wasm.OpI32Add).LocalSet(acc)
	f.Else()
	f.LocalGet(acc).I32Const(2000).Op(wasm.OpI32Add).LocalSet(acc)
	f.End()
	f.Block(wasm.BlockEmpty).Block(wasm.BlockEmpty).Block(wasm.BlockEmpty)
	f.LocalGet(0).BrTable([]uint32{0, 1}, 2)
	f.End().LocalGet(acc).I32Const(100).Op(wasm.OpI32Add).Op(wasm.OpReturn)
	f.End().LocalGet(acc).I32Const(200).Op(wasm.OpI32Add).Op(wasm.OpReturn)
	f.End().LocalGet(acc).End()
	b.Export("f", f.Idx)
	return b.Encode()
}

func callF(t *testing.T, cm *engine.CompiledModule) [3]int32 {
	t.Helper()
	inst, err := cm.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()
	var out [3]int32
	for x := range out {
		res, err := inst.Call("f", wasm.ValI32(int32(x)))
		if err != nil {
			t.Fatal(err)
		}
		out[x] = res[0].I32()
	}
	return out
}

// TestArtifactWildBranchRecompiles plants, under a valid envelope
// checksum, an artifact whose code names a branch target or br_table
// vector outside the function. mach's run loop indexes both unchecked
// and has no recover, so decoding such code would kill the process on
// the first call; it must instead fail to decode, be evicted, and the
// module recompile to the right answers.
func TestArtifactWildBranchRecompiles(t *testing.T) {
	module := hostileModule()
	cfg := engines.WizardSPC()
	want := callF(t, mustCompile(t, engine.New(cfg, nil), module))
	if want != [3]int32{2145, 1255, 1065} {
		t.Fatalf("reference run = %v", want)
	}

	isBranch := func(op mach.Op) bool { return op >= mach.OJump && op <= mach.OBrI64GeU && op != mach.OBrTable }
	plants := []struct {
		name  string
		plant func(c *mach.Code) bool
	}{
		{"jump to len(Instrs)", func(c *mach.Code) bool {
			for i := range c.Instrs {
				if c.Instrs[i].Op == mach.OJump {
					c.Instrs[i].Imm = uint64(len(c.Instrs))
					return true
				}
			}
			return false
		}},
		{"conditional branch far out", func(c *mach.Code) bool {
			for i := range c.Instrs {
				if isBranch(c.Instrs[i].Op) && c.Instrs[i].Op != mach.OJump {
					c.Instrs[i].Imm = 1 << 40
					return true
				}
			}
			return false
		}},
		{"br_table vector index", func(c *mach.Code) bool {
			for i := range c.Instrs {
				if c.Instrs[i].Op == mach.OBrTable {
					c.Instrs[i].A = int32(len(c.Tables))
					return true
				}
			}
			return false
		}},
	}
	for _, p := range plants {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			disk, err := engine.OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			bad := mustCompile(t, engine.New(cfg, nil), module)
			if !p.plant(bad.Codes[0].(*mach.Code)) {
				t.Fatal("compiled code has no instruction to corrupt")
			}
			payload, err := engine.EncodeArtifact(bad)
			if err != nil {
				t.Fatal(err)
			}
			key := codecache.KeyFor(module, cfg.Fingerprint())
			if err := disk.Store(key, payload); err != nil {
				t.Fatal(err)
			}
			if _, done, ok := disk.Load(key); !ok {
				t.Fatal("planted artifact does not pass envelope verification")
			} else {
				done()
			}

			e, cm, cold := coldCompile(t, cfg, workloads.Item{Bytes: module}, dir)
			if e.CompileCalls() == 0 {
				t.Error("hostile artifact was served without recompiling")
			}
			if st := cold.Stats(); st.CorruptEvictions != 1 || st.Writes != 1 {
				t.Errorf("disk stats %+v, want one eviction and one clean republish", st)
			}
			if got := callF(t, cm); got != want {
				t.Errorf("after recompile f = %v, want %v", got, want)
			}
		})
	}
}

// TestArtifactForOtherModuleRejected plants, under a valid envelope for
// a module B, the artifact of a valid module A that differs from B only
// in one export index, which B has out of range. The structure served
// must be B's own, so the load fails B's module-level checks, the
// artifact is evicted, and Compile reports B's validation error. A
// payload that carried the module structure used to serve A instead,
// and a structure it lied about reached Instantiate unchecked.
func TestArtifactForOtherModuleRejected(t *testing.T) {
	module := hostileModule()
	cfg := engines.WizardSPC()
	payload, err := engine.EncodeArtifact(mustCompile(t, engine.New(cfg, nil), module))
	if err != nil {
		t.Fatal(err)
	}
	// The export entry "f" -> function 0; index 5 has the same one-byte
	// LEB, so every other byte of the module keeps its offset.
	entry := []byte{1, 'f', byte(wasm.ImportFunc), 0}
	if n := bytes.Count(module, entry); n != 1 {
		t.Fatalf("export entry occurs %d times in the module, want 1", n)
	}
	bad := bytes.Clone(module)
	bad[bytes.Index(bad, entry)+len(entry)-1] = 5
	_, want := engine.New(cfg, nil).Compile(bad)
	if want == nil {
		t.Fatal("the module with an out-of-range export compiled")
	}

	dir := t.TempDir()
	disk, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Store(codecache.KeyFor(bad, cfg.Fingerprint()), payload); err != nil {
		t.Fatal(err)
	}
	cfg.Cache = codecache.New(codecache.Options{})
	if cfg.DiskCache, err = engine.OpenDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if cm, err := engine.New(cfg, nil).Compile(bad); err == nil {
		t.Fatalf("Compile served %d functions from another module's artifact", len(cm.Infos))
	} else if err.Error() != want.Error() {
		t.Errorf("Compile error %q, want the module's validation error %q", err, want)
	}
	if st := cfg.DiskCache.Stats(); st.CorruptEvictions != 1 {
		t.Errorf("disk stats %+v, want one eviction", st)
	}
}

func mustCompile(t *testing.T, e *engine.Engine, module []byte) *engine.CompiledModule {
	t.Helper()
	cm, err := e.Compile(module)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// payloadShapes are the three shapes a payload takes: mach code
// sections, rewriter code sections, and none (the sidetable is the
// artifact).
func payloadShapes() []engine.Config {
	return []engine.Config{engines.WizardSPC(), engines.Wasm3Like(), engines.WizardINT()}
}

// artifactSHA256 pins the artifact of hostileModule under each of
// payloadShapes to the CompilerRevision that writes it. An artifact
// whose bytes change while the revision stays would be misread by a
// cache directory seeded before the change; a new revision records its
// hashes here.
var artifactSHA256 = map[string]map[string]string{
	"wizgo-codegen-6+analysis-a3": {
		"wizeng-spc": "708e51cbd344dda758dcb00e119f0bd37f3df6fc747e8345433fd501cdfca3a4",
		"wasm3":      "b4c32877272a655f420e84fdf69f2db23a4e4bcafc34ee5821386ca169924ccd",
		"wizeng-int": "26ddd1a48a3c3dc005f6848351dbbb448455565c801773f1ed508177c2f944be",
	},
}

// TestArtifactFormatPinned fails when the artifact encoding changes
// under an already-recorded CompilerRevision.
func TestArtifactFormatPinned(t *testing.T) {
	pinned, ok := artifactSHA256[engine.CompilerRevision]
	for _, cfg := range payloadShapes() {
		enc, err := engine.EncodeArtifact(mustCompile(t, engine.New(cfg, nil), hostileModule()))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(enc))
		switch {
		case !ok:
			t.Errorf("no hashes recorded for revision %q: %s is %s", engine.CompilerRevision, cfg.Name, got)
		case pinned[cfg.Name] != got:
			t.Errorf("%s artifact hashes to %s, recorded as %s under revision %q: bump CompilerRevision",
				cfg.Name, got, pinned[cfg.Name], engine.CompilerRevision)
		}
	}
}

// TestArtifactTruncation: a payload of any shape cut at any byte is an
// error — the cache then evicts and recompiles — never a panic.
func TestArtifactTruncation(t *testing.T) {
	module := hostileModule()
	for _, cfg := range payloadShapes() {
		e := engine.New(cfg, nil)
		enc, err := engine.EncodeArtifact(mustCompile(t, e, module))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := e.DecodeArtifact(module, enc[:cut]); err == nil {
				t.Fatalf("%s: payload cut at %d of %d decoded", cfg.Name, cut, len(enc))
			}
		}
	}
}

// FuzzArtifact feeds arbitrary payloads to the artifact decoder: any
// input yields a CompiledModule or an error — never a panic — and never
// allocates more than a small multiple of its own length, since every
// count it carries is checked against the bytes that remain. The first
// input byte picks the tier and module the rest is decoded against.
func FuzzArtifact(f *testing.F) {
	modules := [][]byte{hostileModule(), workloads.Ostrich()[3].Bytes}
	var engs []*engine.Engine
	for ti, cfg := range payloadShapes() {
		e := engine.New(cfg, nil)
		engs = append(engs, e)
		for mi, m := range modules {
			cm, err := e.Compile(m)
			if err != nil {
				f.Fatal(err)
			}
			enc, err := engine.EncodeArtifact(cm)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{byte(ti*len(modules) + mi)}, enc...))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		sel := int(in[0]) % (len(engs) * len(modules))
		e, module, payload := engs[sel/len(modules)], modules[sel%len(modules)], in[1:]

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cm, err := e.DecodeArtifact(module, payload)
		runtime.ReadMemStats(&after)
		if (cm == nil) == (err == nil) {
			t.Fatalf("DecodeArtifact = %v, %v", cm, err)
		}
		// A two-byte record becomes a 24-byte instruction plus its
		// pc-map entry, and a few bytes of section header a code object:
		// the bound is that ratio with room to spare, not a tuned figure.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), grew, limit)
		}
	})
}

func BenchmarkArtifactCodec(b *testing.B) {
	module := wideModule(512)
	for _, cfg := range []engine.Config{engines.WizardSPC(), engines.Wasm3Like()} {
		e := engine.New(cfg, nil)
		cm, err := e.Compile(module)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := engine.EncodeArtifact(cm)
		if err != nil {
			b.Fatal(err)
		}
		payload = append([]byte(nil), payload...)
		b.Run(cfg.Name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := engine.EncodeArtifact(cm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.Name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := e.DecodeArtifact(module, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
