package faultinject

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	p := Register("test.disarmed")
	if err := Fire(p); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if !slices.Contains(Points(), p) {
		t.Errorf("Points() = %v, missing %s", Points(), p)
	}
	if enabled.Load() {
		t.Error("gate is on with nothing armed")
	}
}

func TestSkipThenCountThenSelfDisarm(t *testing.T) {
	ResetCounts()
	const p = "test.skipcount"
	own := errors.New("own error")
	disarm := Arm(p, Fault{Err: own, Skip: 2, Count: 3})
	defer disarm()

	var got []error
	for i := 0; i < 7; i++ {
		got = append(got, Fire(p))
	}
	for i, err := range got {
		want := i >= 2 && i < 5 // two skipped, three fired, then exhausted
		if (err != nil) != want {
			t.Errorf("Fire #%d = %v, want fired=%v", i, err, want)
		}
		if err != nil && !errors.Is(err, own) {
			t.Errorf("Fire #%d = %v, want the armed error", i, err)
		}
	}
	if n := Fired(p); n != 3 {
		t.Errorf("Fired = %d, want 3", n)
	}
	if enabled.Load() {
		t.Error("gate still on after the only fault exhausted its count")
	}
	ResetCounts()
	if n := Fired(p); n != 0 {
		t.Errorf("Fired after ResetCounts = %d", n)
	}
}

func TestDefaultErrorAndDisarm(t *testing.T) {
	const p, other = "test.default", "test.default.other"
	disarm := Arm(p, Fault{})
	disarmOther := Arm(other, Fault{})
	if err := Fire(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("zero Fault fired %v, want ErrInjected", err)
	}
	if err := Fire("test.default.unarmed"); err != nil {
		t.Errorf("unarmed point fired while another was armed: %v", err)
	}
	disarm()
	if err := Fire(p); err != nil {
		t.Errorf("fired after disarm: %v", err)
	}
	if !enabled.Load() {
		t.Error("disarming one point closed the gate on the other")
	}
	if err := Fire(other); err == nil {
		t.Error("second point stopped firing when the first was disarmed")
	}
	disarmOther()
	disarmOther() // idempotent
	if enabled.Load() {
		t.Error("gate still on after every point was disarmed")
	}
}

func TestPanicAndDelayOnly(t *testing.T) {
	const p = "test.modes"
	disarm := Arm(p, Fault{Panic: "boom", Count: 1})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		_ = Fire(p) // panics
		t.Error("Fire returned from a Panic fault")
	}()
	disarm()

	disarm = Arm(p, Fault{Delay: 5 * time.Millisecond})
	defer disarm()
	t0 := time.Now()
	if err := Fire(p); err != nil {
		t.Errorf("delay-only fault returned %v", err)
	}
	if d := time.Since(t0); d < 5*time.Millisecond {
		t.Errorf("delay-only fault returned after %v", d)
	}
}

// TestConcurrentFire holds the count under contention: however many
// goroutines race on one point, exactly Count of their calls fire (run
// with -race).
func TestConcurrentFire(t *testing.T) {
	ResetCounts()
	const (
		p       = "test.concurrent"
		count   = 100
		workers = 8
		each    = 50
	)
	disarm := Arm(p, Fault{Count: count})
	defer disarm()
	var fires atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if Fire(p) != nil {
					fires.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if fires.Load() != count || Fired(p) != count {
		t.Errorf("%d calls fired (counter %d), want %d of %d", fires.Load(), Fired(p), count, workers*each)
	}
}
