package difftest

import (
	"fmt"

	"wizgo/internal/workloads"
)

// SuiteModule is a workload line item, or its early-return (m0) variant,
// as oracle input. The suites are the modules every figure is measured
// on, so they go through the same oracle as generated modules — results,
// memory hash and globals, fresh, after a Reset and from a disk artifact
// — plus the two things only a known workload can be held to: it must
// finish, and its checksum must show that it computed something.
type SuiteModule struct {
	Generated
	// Name is "suite/item", with " (m0)" appended for the variant.
	Name string
	// M0 marks the early-return variant: _start returns at once, so the
	// checksum must still be 0. A full item's must not be.
	M0 bool
}

// SuiteModules returns one SuiteModule per item and one per m0 variant,
// the variant right after its item. The calls are _start, then checksum.
func SuiteModules(items []workloads.Item) []SuiteModule {
	calls := []Call{{Export: "_start"}, {Export: "checksum"}}
	mods := make([]SuiteModule, 0, 2*len(items))
	for _, it := range items {
		name := it.Suite + "/" + it.Name
		mods = append(mods,
			SuiteModule{Generated: Generated{Bytes: it.Bytes, Calls: calls}, Name: name},
			SuiteModule{Generated: Generated{Bytes: it.BytesM0, Calls: calls}, Name: name + " (m0)", M0: true})
	}
	return mods
}

// RunSuite is Run under the suite's stricter contract. A run that
// crosses the deadline is a failure, not an incomparable module: a suite
// item is known to terminate, so an interrupt is an executor that hangs
// or a deadline that hides one. And the agreed outcome itself is
// checked: both calls return, and checksum is zero exactly for an m0
// variant — agreement on a trap or on a vacuous run is not a pass. Such
// a failure is reported as a Divergence of the configuration against
// itself, so callers have one failure shape to print.
func (o *Oracle) RunSuite(m SuiteModule) ([]EngineOutcome, *Divergence) {
	outs, d, interrupted := o.run(m.Generated)
	if d != nil {
		return outs, d
	}
	fail := func(cfg, detail string) ([]EngineOutcome, *Divergence) {
		return outs, &Divergence{ConfigA: cfg, ConfigB: cfg, Detail: detail, Outcomes: outs}
	}
	if interrupted != "" {
		return fail(interrupted, fmt.Sprintf("a call crossed the %v deadline", o.Deadline))
	}
	// Every configuration agreed with the first, so the first speaks for all.
	first := outs[0]
	if first.Outcome.Rejected {
		return fail(first.Config, "rejected: "+first.Outcome.RejectErr)
	}
	for _, c := range first.Outcome.Calls {
		if c.Trapped || c.Err != "" {
			return fail(first.Config, fmt.Sprintf("call %s: trap %s, error %q", c.Export, trapLabel(c), c.Err))
		}
	}
	sum := first.Outcome.Calls[1].Results
	if len(sum) != 1 || (sum[0] == 0) != m.M0 {
		return fail(first.Config, fmt.Sprintf("checksum %#x (m0 variant: %v; want zero only for m0)", sum, m.M0))
	}
	return outs, nil
}
