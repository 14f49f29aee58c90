package difftest

import (
	"context"
	"errors"
	"testing"
	"time"

	"wizgo/internal/engine"
	"wizgo/internal/engines"
	"wizgo/internal/rt"
)

// TestCancellationUnderGeneratedLoops: generator-built unbounded loops
// must hit TrapInterrupted identically under every matrix configuration.
// "spin" is a genuinely infinite loop; "spin_counted" is a counted loop
// with a 2^30 trip bound, the shape a compiler is most tempted to treat
// as terminating: its back-edge must keep the poll that makes a
// long-running loop cancellable.
func TestCancellationUnderGeneratedLoops(t *testing.T) {
	g := Generate(1, GenConfig{Unbounded: true})
	for _, cfg := range engines.DifferentialMatrix() {
		e := engine.New(cfg, nil)
		cm, err := e.Compile(g.Bytes)
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.Name, err)
		}
		inst, err := cm.Instantiate()
		if err != nil {
			t.Fatalf("%s: instantiate: %v", cfg.Name, err)
		}
		for _, name := range []string{"spin", "spin_counted"} {
			ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
			_, err := inst.CallContext(ctx, name)
			cancel()
			var trap *rt.Trap
			if !errors.As(err, &trap) || trap.Kind != rt.TrapInterrupted {
				t.Fatalf("%s: %s: want TrapInterrupted, got %v", cfg.Name, name, err)
			}
		}
		inst.Release()
	}
}

// TestCorpusReplay runs every checked-in reproducer through the full
// oracle: once a divergence is fixed, its minimized module must stay in
// agreement forever. LoadCorpus fails on a missing directory, so this
// test cannot silently pass by looking at the wrong path, and the
// non-empty check keeps it from going vacuous if the corpus is ever
// emptied out.
func TestCorpusReplay(t *testing.T) {
	rs, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	if len(rs) == 0 {
		t.Fatal("corpus is empty; at least one reproducer must be checked in")
	}
	o := NewOracle()
	for _, r := range rs {
		g, err := r.Generated()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		outs, d := o.Run(g)
		if d != nil {
			t.Errorf("%s regressed: %v\n%s", r.Name, d, OutcomeTable(outs))
		}
	}
}
