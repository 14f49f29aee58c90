// Command wizgo-vet enforces wizgo's runtime invariants over the source
// tree itself — the static-analysis discipline applied to the engine's
// own code rather than to guest Wasm:
//
//   - traps: every rt.Trap must be constructed through rt.NewTrap or
//     rt.NewTrapWrapped. A raw &rt.Trap{} outside internal/rt bypasses
//     the single place where trap invariants (pc/func attribution,
//     wrapping rules) are maintained.
//
//   - timenow: no ungated time.Now() in the hot execution packages
//     (internal/interp, internal/rewriter, internal/mach,
//     internal/copypatch, internal/rt). A clock read per instruction or
//     per call is exactly the overhead the telemetry layer's
//     Enabled() gates exist to avoid; hot-path code must route timing
//     through those gates. A deliberate exception is granted by a
//     "//vet:allow timenow" comment on the offending line.
//
//   - onedecoder: no bytecode decoding (wasm.NewReader, ReadOpcode,
//     SkipImm) in the packages that translate function bodies
//     (internal/spc, internal/copypatch, internal/opt,
//     internal/rewriter). They read instructions from the validator's
//     walk, so a body is decoded once and branches follow the
//     sidetable; a second decoder is a second copy of those rules. A
//     deliberate exception is granted by "//vet:allow onedecoder".
//
// The tool runs in two modes. Standalone — `wizgo-vet ./...` — walks
// the tree, parses every non-test Go file and reports findings, exiting
// 2 when any are found; this is what CI runs. It also speaks enough of
// the cmd/go vettool protocol (-V=full, -flags, single *.cfg argument,
// VetxOutput) to be usable as `go vet -vettool=$(which wizgo-vet)`.
//
// It is built on the standard library only (go/parser + go/ast): the
// invariants are syntactic, so full type checking — and the x/tools
// dependency it would pull in — is unnecessary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// hotPackages are import-path suffixes where an ungated time.Now() is a
// per-instruction or per-call cost.
var hotPackages = []string{
	"internal/interp",
	"internal/rewriter",
	"internal/mach",
	"internal/copypatch",
	"internal/rt",
}

// decoderPackages are import-path suffixes of the packages that
// translate function bodies from the validator's walk.
var decoderPackages = []string{
	"internal/spc",
	"internal/copypatch",
	"internal/opt",
	"internal/rewriter",
}

// rtImportSuffix identifies the runtime package, both to resolve the
// local name of its import and to exempt its own files from the trap
// rule.
const rtImportSuffix = "internal/rt"

type diagnostic struct {
	pos      token.Position
	analyzer string
	message  string
}

func main() {
	var (
		versionFlag = flag.String("V", "", "print version (vettool protocol)")
		flagsFlag   = flag.Bool("flags", false, "print analyzer flags as JSON (vettool protocol)")
		jsonFlag    = flag.Bool("json", false, "emit diagnostics as JSON")
	)
	flag.Int("c", -1, "display offending line with this many lines of context (accepted, ignored)")
	flag.Parse()

	if *versionFlag != "" {
		// The exact shape cmd/go expects from a vettool's -V=full
		// handshake: "name version ...". The trailing token keys the
		// build cache.
		fmt.Printf("wizgo-vet version devel buildID=wizgo-vet-1\n")
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0], *jsonFlag))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, *jsonFlag))
}

// vetConfig is the subset of cmd/go's vet.cfg we consume.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOutput string
}

// runUnit analyzes one package under the go vet driver protocol.
func runUnit(cfgPath string, asJSON bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wizgo-vet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wizgo-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	fset := token.NewFileSet()
	var diags []diagnostic
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wizgo-vet: %v\n", err)
			return 1
		}
		diags = append(diags, checkFile(fset, file, cfg.ImportPath)...)
	}
	// The driver requires the facts file to exist even though these
	// analyzers export none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "wizgo-vet: %v\n", err)
			return 1
		}
	}
	return report(diags, asJSON)
}

// runStandalone walks the given roots ("./..." style or plain dirs) and
// analyzes every non-test Go file, inferring each file's import-path
// role from its directory.
func runStandalone(roots []string, asJSON bool) int {
	fset := token.NewFileSet()
	var diags []diagnostic
	for _, root := range roots {
		recursive := false
		if strings.HasSuffix(root, "/...") {
			recursive = true
			root = strings.TrimSuffix(root, "/...")
			if root == "." || root == "" {
				root = "."
			}
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if !recursive && path != root {
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
			diags = append(diags, checkFile(fset, file, filepath.ToSlash(filepath.Dir(path)))...)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wizgo-vet: %v\n", err)
			return 1
		}
	}
	return report(diags, asJSON)
}

func report(diags []diagnostic, asJSON bool) int {
	if len(diags) == 0 {
		return 0
	}
	if asJSON {
		out := map[string][]map[string]string{}
		for _, d := range diags {
			out[d.analyzer] = append(out[d.analyzer], map[string]string{
				"posn": d.pos.String(), "message": d.message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.pos, d.analyzer, d.message)
		}
	}
	return 2
}

// hasSuffix reports whether pkgPath ends in one of suffixes.
func hasSuffix(pkgPath string, suffixes []string) bool {
	for _, p := range suffixes {
		if strings.HasSuffix(pkgPath, p) {
			return true
		}
	}
	return false
}

// checkFile runs the analyzers over one parsed file. pkgPath is the
// file's import path (unit mode) or directory path (standalone mode);
// only its suffix is consulted.
func checkFile(fset *token.FileSet, file *ast.File, pkgPath string) []diagnostic {
	var diags []diagnostic
	hot, decoding := hasSuffix(pkgPath, hotPackages), hasSuffix(pkgPath, decoderPackages)
	inRT := strings.HasSuffix(pkgPath, rtImportSuffix)

	// Resolve the local names under which this file imports the runtime,
	// time and wasm packages; aliased imports must not dodge the rules.
	rtName, timeName, wasmName := "", "", ""
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch {
		case strings.HasSuffix(path, rtImportSuffix):
			if name == "" {
				name = "rt"
			}
			rtName = name
		case path == "time":
			if name == "" {
				name = "time"
			}
			timeName = name
		case strings.HasSuffix(path, "internal/wasm"):
			if name == "" {
				name = "wasm"
			}
			wasmName = name
		}
	}

	// allowed holds the exceptions granted by "//vet:allow <analyzer>"
	// comments; one covers its own line and the next.
	type exception struct {
		analyzer string
		line     int
	}
	allowed := map[exception]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, a := range []string{"timenow", "onedecoder"} {
				if strings.Contains(c.Text, "vet:allow "+a) {
					allowed[exception{a, fset.Position(c.Pos()).Line}] = true
				}
			}
		}
	}
	note := func(n ast.Node, analyzer, message string) {
		line := fset.Position(n.Pos()).Line
		if !allowed[exception{analyzer, line}] && !allowed[exception{analyzer, line - 1}] {
			diags = append(diags, diagnostic{pos: fset.Position(n.Pos()), analyzer: analyzer, message: message})
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if inRT || rtName == "" {
				return true
			}
			if sel, ok := n.Type.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == rtName && sel.Sel.Name == "Trap" {
					diags = append(diags, diagnostic{
						pos:      fset.Position(n.Pos()),
						analyzer: "traps",
						message:  "raw " + rtName + ".Trap literal: construct traps via rt.NewTrap or rt.NewTrapWrapped",
					})
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := ""
			if id, ok := sel.X.(*ast.Ident); ok {
				pkg = id.Name
			}
			if hot && timeName != "" && pkg == timeName && sel.Sel.Name == "Now" {
				note(n, "timenow", "ungated time.Now() in hot-path package "+pkgPath+"; gate it behind the telemetry Enabled() check or annotate //vet:allow timenow")
			}
			if decoding && (wasmName != "" && pkg == wasmName && sel.Sel.Name == "NewReader" ||
				sel.Sel.Name == "ReadOpcode" || sel.Sel.Name == "SkipImm") {
				note(n, "onedecoder", sel.Sel.Name+" in "+pkgPath+": translate from the validator's walk (validate.Walk), or annotate //vet:allow onedecoder")
			}
		}
		return true
	})
	return diags
}
