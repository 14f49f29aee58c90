package spc_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/mach"
	"wizgo/internal/rewriter"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/wbin"
	"wizgo/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/code.golden from the current compiler")

const goldenPath = "testdata/code.golden"

// hashCode folds one function's serialized code (the artifact bytes) and
// its frame shape into h. A translated body's artifact bytes already
// hold its frame shape.
func hashCode(t *testing.T, h hash.Hash, code engine.Code) {
	t.Helper()
	w := wbin.NewWriter(1024)
	switch c := code.(type) {
	case *mach.Code:
		if err := c.AppendTo(w); err != nil {
			t.Fatalf("func %d: %v", c.FuncIdx, err)
		}
		h.Write(w.Bytes())
		fmt.Fprintf(h, "|%d %d %d|", c.NumSlots, c.NumParams, c.NumResults)
	case *rewriter.Code:
		if err := c.AppendTo(w); err != nil {
			t.Fatal(err)
		}
		h.Write(w.Bytes())
	default:
		t.Fatalf("no serialization for %T", code)
	}
}

// TestSPCCodeGolden pins the code the compiling tiers emit: a SHA-256
// per suite item of every function's artifact bytes under wizeng-spc,
// and one per configuration over the whole suite for every other preset
// with a tier, mach code and rewriter translations alike. Each is
// compiled through Tier.Compile (the recompile path probes and lazy
// tiers take); eager configurations are also compiled through
// Engine.Compile (the fused path), which must produce the same bytes.
// Regenerate with `go test ./internal/spc -run TestSPCCodeGolden
// -update` only for a change that is meant to alter emitted code.
func TestSPCCodeGolden(t *testing.T) {
	items := workloads.All()
	var got []string
	for _, cfg := range engines.FullMatrix() {
		if cfg.Tier == nil {
			continue
		}
		perItem := cfg.Name == engines.WizardSPC().Name
		eager := cfg.Mode != engine.ModeInterp && !cfg.LazyCompile
		e := engine.New(cfg, nil)
		all := sha256.New()
		for _, it := range items {
			m, err := wasm.Decode(it.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			infos, err := validate.Module(m)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			imported := m.NumImportedFuncs()
			for i := range m.Funcs {
				code, err := cfg.Tier.Compile(m, uint32(imported+i), &m.Funcs[i], &infos[i], nil)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", cfg.Name, it.Suite, it.Name, err)
				}
				hashCode(t, h, code)
			}
			sum := h.Sum(nil)
			if eager {
				cm, err := e.Compile(it.Bytes)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", cfg.Name, it.Suite, it.Name, err)
				}
				fused := sha256.New()
				for _, c := range cm.Codes {
					hashCode(t, fused, c)
				}
				if !bytes.Equal(fused.Sum(nil), sum) {
					t.Errorf("%s %s/%s: Engine.Compile and Tier.Compile emit different code", cfg.Name, it.Suite, it.Name)
				}
			}
			all.Write(sum)
			if perItem {
				got = append(got, fmt.Sprintf("%s %s/%s %s", cfg.Name, it.Suite, it.Name, hex.EncodeToString(sum)))
			}
		}
		got = append(got, fmt.Sprintf("%s * %s", cfg.Name, hex.EncodeToString(all.Sum(nil))))
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, compiler produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("code changed:\n  want %s\n  got  %s", want[i], got[i])
		}
	}
}
