package wasm_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// seedModules feeds the fuzzer every checked-in module plus the
// benchmark-suite modules, so coverage starts from real inputs rather
// than random bytes.
func seedModules(f *testing.F) {
	paths, _ := filepath.Glob("../../modules/*/*.wasm")
	if more, _ := filepath.Glob("../../modules/*.wasm"); len(more) > 0 {
		paths = append(paths, more...)
	}
	for _, p := range paths {
		if bytes, err := os.ReadFile(p); err == nil {
			f.Add(bytes)
		}
	}
	f.Add(workloads.Mnop())
	f.Add(wrappedPrefixModule())
}

// wrappedPrefixModule is i32.const 1; i32.const 2; FC EA FE 03; end —
// the 0xFC sub-opcode 0xFF6A, which once wrapped in uint16 onto i32.add
// so the body validated and ran. It decodes (bodies are opaque to
// Decode); validation must reject it.
func wrappedPrefixModule() []byte {
	b := wasm.NewBuilder()
	f := b.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	f.I32Const(1).I32Const(2).Raw(wasm.PrefixFC, 0xEA, 0xFE, 0x03).End()
	b.Export("f", f.Idx)
	return b.Encode()
}

// FuzzDecode: the decoder must reject or accept arbitrary bytes without
// panicking, and anything it accepts must re-encode without panicking.
func FuzzDecode(f *testing.F) {
	seedModules(f)
	f.Fuzz(func(t *testing.T, bytes []byte) {
		m, err := wasm.Decode(bytes)
		if err != nil {
			return
		}
		_ = wasm.Encode(m)
	})
}

// skeleton strips the fields Encode legitimately does not round-trip:
// byte offsets into the original encoding, the original size, and the
// custom name section.
func skeleton(m *wasm.Module) *wasm.Module {
	c := *m
	c.Size = 0
	c.Names = nil
	c.Funcs = append([]wasm.Func(nil), m.Funcs...)
	for i := range c.Funcs {
		c.Funcs[i].BodyOffset = 0
	}
	return &c
}

// FuzzRoundTrip: decode → encode → decode reproduces an identical
// module skeleton, so the minimizer's decode/mutate/encode pipeline and
// the persistent code cache can trust Encode as a faithful inverse.
func FuzzRoundTrip(f *testing.F) {
	seedModules(f)
	f.Fuzz(func(t *testing.T, bytes []byte) {
		m1, err := wasm.Decode(bytes)
		if err != nil {
			return
		}
		enc := wasm.Encode(m1)
		m2, err := wasm.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of encoded module failed: %v", err)
		}
		if !reflect.DeepEqual(skeleton(m1), skeleton(m2)) {
			t.Fatalf("round-trip skeleton mismatch:\nfirst:  %+v\nsecond: %+v", skeleton(m1), skeleton(m2))
		}
	})
}
