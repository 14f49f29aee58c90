// Package telemetry is the runtime's unified observability core: a
// zero-dependency, allocation-free metrics layer (atomic counters,
// gauges, and fixed-bucket latency histograms with mergeable
// snapshots), a ring-buffered request-lifecycle tracer, and the
// exposition surfaces that make both visible — Prometheus text format
// and an expvar-compatible JSON snapshot.
//
// The paper frames baseline-compiler design as a measurable tradeoff
// between compile speed and code quality; this package is how a
// deployment keeps measuring it in production. Every stat producer in
// the runtime — the code cache's memory and disk tiers, the instance
// pool, the engine's compile/link/execute pipeline, the executors' trap
// paths — publishes into one process-wide Registry (Default), so a
// single scrape answers where time goes: compiling, rehydrating,
// linking, resetting, or executing.
//
// Design constraints, in order:
//
//   - Hot-path cost. Counter.Inc and Histogram.Observe are one or two
//     uncontended atomic adds and never allocate — cheap enough to sit
//     on the code cache's lookup path and the engine's per-call path
//     without moving the execution benchmarks. The tracer is disabled
//     by default and costs one atomic load when off.
//   - Mergeability. Snapshots from different processes (or different
//     scrape instants) merge associatively: counters and histogram
//     buckets add, gauges add (they are sized in deltas, e.g. pooled
//     instances in custody). This is what lets a fleet aggregate
//     per-replica snapshots into one view.
//   - No dependencies. The package imports only the standard library,
//     so every internal package (rt included) can publish into it
//     without cycles.
package telemetry

import "sync"

var (
	defaultOnce     sync.Once
	defaultRegistry *Registry
	defaultTracer   = NewTracer()
)

// Default returns the process-wide registry every runtime package
// publishes into. The first call creates it.
func Default() *Registry {
	defaultOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// DefaultTracer returns the process-wide request-lifecycle tracer. It
// starts disabled; call Enable to start recording spans.
func DefaultTracer() *Tracer { return defaultTracer }
