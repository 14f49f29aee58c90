package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, pkgPath, src string) []diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return checkFile(fset, file, pkgPath)
}

func TestTrapLiteralFlagged(t *testing.T) {
	src := `package p
import "wizgo/internal/rt"
func f() error { return &rt.Trap{} }
`
	diags := check(t, "wizgo/internal/engine", src)
	if len(diags) != 1 || diags[0].analyzer != "traps" {
		t.Fatalf("want one traps diagnostic, got %v", diags)
	}
}

func TestTrapLiteralAliasedImportFlagged(t *testing.T) {
	src := `package p
import runtime2 "wizgo/internal/rt"
func f() error { return &runtime2.Trap{Kind: 1} }
`
	if diags := check(t, "wizgo/internal/engine", src); len(diags) != 1 {
		t.Fatalf("aliased import dodged the rule: %v", diags)
	}
}

func TestTrapConstructorAllowed(t *testing.T) {
	src := `package p
import "wizgo/internal/rt"
func f() error { return rt.NewTrap(rt.TrapUnreachable, 0, 0) }
`
	if diags := check(t, "wizgo/internal/engine", src); len(diags) != 0 {
		t.Fatalf("constructor flagged: %v", diags)
	}
}

func TestTrapLiteralInsideRTAllowed(t *testing.T) {
	src := `package rt
import rt "wizgo/internal/rt"
func f() error { return &rt.Trap{} }
`
	if diags := check(t, "wizgo/internal/rt", src); len(diags) != 0 {
		t.Fatalf("internal/rt's own literal flagged: %v", diags)
	}
}

func TestTimeNowInHotPackageFlagged(t *testing.T) {
	src := `package interp
import "time"
func f() time.Time { return time.Now() }
`
	diags := check(t, "wizgo/internal/interp", src)
	if len(diags) != 1 || diags[0].analyzer != "timenow" {
		t.Fatalf("want one timenow diagnostic, got %v", diags)
	}
}

func TestTimeNowAllowComment(t *testing.T) {
	src := `package interp
import "time"
func f() time.Time {
	return time.Now() //vet:allow timenow
}
`
	if diags := check(t, "wizgo/internal/interp", src); len(diags) != 0 {
		t.Fatalf("allow comment ignored: %v", diags)
	}
}

func TestTimeNowInColdPackageAllowed(t *testing.T) {
	src := `package engine
import "time"
func f() time.Time { return time.Now() }
`
	if diags := check(t, "wizgo/internal/engine", src); len(diags) != 0 {
		t.Fatalf("cold package flagged: %v", diags)
	}
}

// TestSecondDecoderFlagged: a translating package decodes nothing
// itself, under any import name, unless the line is marked; the
// validator, which owns the walk, may.
func TestSecondDecoderFlagged(t *testing.T) {
	src := `package rewriter
import w "wizgo/internal/wasm"
func f(b []byte) {
	r := w.NewReader(b)
	op, _ := r.ReadOpcode()
	r.SkipImm(op)
	_, _ = r.ReadOpcode() //vet:allow onedecoder
}
`
	diags := check(t, "wizgo/internal/rewriter", src)
	if len(diags) != 3 {
		t.Fatalf("want three onedecoder diagnostics, got %v", diags)
	}
	for _, d := range diags {
		if d.analyzer != "onedecoder" {
			t.Errorf("unexpected %s diagnostic: %s", d.analyzer, d.message)
		}
	}
	if diags := check(t, "wizgo/internal/validate", src); len(diags) != 0 {
		t.Fatalf("the validator flagged: %v", diags)
	}
}

// TestRepoClean runs the analyzers over the whole repository: the
// invariants the tool enforces must actually hold.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, d := range checkFile(fset, file, filepath.ToSlash(filepath.Dir(path))) {
			bad = append(bad, d.pos.String()+": "+d.message)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("repo violates its own invariants:\n%s", strings.Join(bad, "\n"))
	}
}
