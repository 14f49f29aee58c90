// Package wizgo's root benchmarks are the three ablations and the one
// overhead figure that neither the repository benchmark (`go run
// ./bench`: serving path, executors, setup layers) nor `wizgo-bench -fig
// N` (the paper's figures) reports. Run one with e.g.
//
//	go test -run '^$' -bench FuelOverhead .
package wizgo

import (
	"context"
	"testing"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/heap"
	"wizgo/internal/rt"
	"wizgo/internal/spc"
	"wizgo/internal/validate"
	"wizgo/internal/wasm"
	"wizgo/internal/workloads"
)

// BenchmarkAblationSnapshot measures the abstract-state snapshot cost
// that DESIGN.md calls out: the memcpy strategy on a frame of the given
// size — the quantity the paper says must stay linear to avoid JIT
// bombs.
func BenchmarkAblationSnapshot(b *testing.B) {
	build := func(locals int) []byte {
		bb := wasm.NewBuilder()
		f := bb.NewFunc("f", wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
		for i := 0; i < locals; i++ {
			f.AddLocal(wasm.I32)
		}
		// A chain of ifs forces a snapshot per split.
		for i := 0; i < 32; i++ {
			f.I32Const(int32(i)).If(wasm.BlockEmpty).End()
		}
		f.I32Const(0)
		f.End()
		bb.Export("f", f.Idx)
		return bb.Encode()
	}
	for _, locals := range []int{8, 256, 4096} {
		bytes := build(locals)
		m, _ := wasm.Decode(bytes)
		infos, err := validate.Module(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(locals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spc.Compile(m, 0, &m.Funcs[0], &infos[0], nil, spc.Wizard()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 100:
		return "locals-8"
	case n < 1000:
		return "locals-256"
	default:
		return "locals-4096"
	}
}

// BenchmarkAblationOSR measures tiered execution against pure tiers on a
// hot loop, each iteration a fresh engine (compile included, as a first
// request pays it): the tiered engine should land near the JIT, far
// above the interpreter.
func BenchmarkAblationOSR(b *testing.B) {
	item := workloads.Libsodium()[0] // stream_chacha20
	for _, cfg := range []engine.Config{
		engines.WizardINT(), engines.WizardTiered(100), engines.WizardSPC(),
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst, err := engine.New(cfg, nil).Instantiate(item.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.Call("_start"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFuelOverhead measures what per-call fuel metering costs:
// gemm on a warm instance of every cataloged engine with metering off
// (fuel 0: the checkpoint gate is one predictable branch) and on with a
// budget the run cannot exhaust (every function entry and loop-header
// arrival pays the decrement). Compare the off and on ns/op of a config.
func BenchmarkFuelOverhead(b *testing.B) {
	item := workloads.PolyBench()[0] // gemm
	for _, cfg := range engines.Catalog() {
		inst, err := engine.New(cfg, nil).Instantiate(item.Bytes)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			fuel int64
		}{{"off", 0}, {"on", 1 << 40}} {
			b.Run(cfg.Name+"/"+mode.name, func(b *testing.B) {
				opts := engine.CallOpts{Fuel: mode.fuel}
				// One untimed run: lazy compiles and tier-up happen here.
				if _, err := inst.CallWith(context.Background(), opts, "_start"); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.CallWith(context.Background(), opts, "_start"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGCRootScan compares tag scanning and stackmap scanning of a
// deep frame stack — the dynamic-cost side of the paper's Section IV-C
// trade-off.
func BenchmarkGCRootScan(b *testing.B) {
	ctx := &rt.Context{Stack: rt.NewValueStack(1<<16, true)}
	info := &validate.FuncInfo{LocalTypes: []wasm.ValueType{wasm.ExternRef, wasm.I64}}
	fn := &rt.FuncInst{Info: info}
	for i := 0; i < 64; i++ {
		base := i * 64
		for s := 0; s < 64; s++ {
			ctx.Stack.Tags[base+s] = wasm.TagI64
		}
		ctx.Stack.Tags[base] = wasm.TagRef
		ctx.Stack.Slots[base] = uint64(i + 1)
		ctx.PushFrame(rt.FrameInfo{Kind: rt.FrameInterp, Func: fn, VFP: base, SP: base + 64})
	}
	h := heap.New(heap.ScanTags)
	for i := 0; i < 64; i++ {
		h.Alloc(uint64(i))
	}
	b.Run("tags", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.StackRoots(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
