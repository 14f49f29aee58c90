package rt

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"wizgo/internal/wasm"
)

// TestValueStackGrow pins the growth policy: start at initialStackSlots
// (or the cap, when lower), double until the frame fits, clamp to the
// cap, keep slots and tags, and trap exactly where a stack allocated at
// the cap would have.
func TestValueStackGrow(t *testing.T) {
	const capSlots = 5 * initialStackSlots // not a power of two: the last doubling clamps
	ctx := &Context{Stack: NewValueStack(capSlots, true), MaxDepth: 10}
	vs := ctx.Stack
	if len(vs.Slots) != initialStackSlots || len(vs.Tags) != initialStackSlots {
		t.Fatalf("initial size %d/%d, want %d", len(vs.Slots), len(vs.Tags), initialStackSlots)
	}
	for i := range vs.Slots {
		vs.Slots[i] = uint64(i) + 1
		vs.Tags[i] = wasm.Tag(i%5 + 1)
	}
	check := func(wantLen int) {
		t.Helper()
		if len(vs.Slots) != wantLen || len(vs.Tags) != wantLen {
			t.Fatalf("size %d/%d, want %d", len(vs.Slots), len(vs.Tags), wantLen)
		}
		if vs.limit != wantLen-stackRedZone {
			t.Fatalf("limit %d, want %d", vs.limit, wantLen-stackRedZone)
		}
		for i := 0; i < initialStackSlots; i++ {
			if vs.Slots[i] != uint64(i)+1 || vs.Tags[i] != wasm.Tag(i%5+1) {
				t.Fatalf("slot %d not preserved: %d/%d", i, vs.Slots[i], vs.Tags[i])
			}
		}
	}

	// The last frame that fits does not grow.
	if err := ctx.CheckStack(initialStackSlots-stackRedZone-8, 8, 0); err != nil {
		t.Fatal(err)
	}
	check(initialStackSlots)
	// One slot more doubles once.
	if err := ctx.CheckStack(initialStackSlots-stackRedZone-8, 9, 0); err != nil {
		t.Fatal(err)
	}
	check(2 * initialStackSlots)
	// A frame far above skips sizes; the cap clamps the last doubling.
	if err := ctx.CheckStack(capSlots-stackRedZone-8, 8, 0); err != nil {
		t.Fatal(err)
	}
	check(capSlots)
	// One slot past the cap traps and leaves the stack alone.
	err := ctx.CheckStack(capSlots-stackRedZone-8, 9, 7)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapStackOverflow || trap.FuncIdx != 7 {
		t.Fatalf("past the cap: %v", err)
	}
	check(capSlots)

	// MaxDepth wins over a frame that would fit after growing.
	deep := &Context{Stack: NewValueStack(capSlots, false), MaxDepth: 3, Depth: 3}
	if err := deep.CheckStack(initialStackSlots, 8, 0); !errors.As(err, &trap) || trap.Kind != TrapStackOverflow {
		t.Fatalf("at MaxDepth: %v", err)
	}
	if len(deep.Stack.Slots) != initialStackSlots || deep.Stack.Tags != nil {
		t.Errorf("a depth trap grew the stack to %d", len(deep.Stack.Slots))
	}

	// A cap below the initial size is the whole allocation.
	small := &Context{Stack: NewValueStack(128, true), MaxDepth: 10}
	if len(small.Stack.Slots) != 128 || small.Stack.limit != 128-stackRedZone {
		t.Fatalf("small stack: len %d limit %d", len(small.Stack.Slots), small.Stack.limit)
	}
	if err := small.CheckStack(0, 128-stackRedZone, 0); err != nil {
		t.Errorf("fits a 128-slot cap but rejected: %v", err)
	}
	if err := small.CheckStack(0, 128-stackRedZone+1, 0); err == nil {
		t.Error("overflow of a 128-slot cap accepted")
	}
	if len(small.Stack.Slots) != 128 {
		t.Errorf("small stack grew to %d", len(small.Stack.Slots))
	}
}

// TestCheckStackInlines fails when CheckStack outgrows the compiler's
// inlining budget. Every guest and host call runs it, and no functional
// test sees the difference: with a growth branch written inline it cost
// 82–87 against a budget of 80, and exec_ms.rewriter on host-bridge read
// 2.22 → 2.52 ms.
func TestCheckStackInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline (*Context).CheckStack") {
		t.Error("(*Context).CheckStack is no longer inlinable; keep its body to the limit compare and the out-of-line growOrTrap call")
	}
}
