// Package lint is the torq-lint analyzer suite; see doc.go for the
// invariant each analyzer enforces.
package lint

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/unusedresult"
)

// Analyzers returns the full torq-lint suite in the order diagnostics are
// grouped: directive hygiene first (a typo there silently disables the
// rest), then the determinism rules, then the concurrency deep checks,
// then the performance contracts.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		TorqDirective,
		DetRange,
		FloatBits,
		NonDet,
		AtomicMix,
		MergeOrder,
		NoLockTelemetry,
		HotAlloc,
	}
}

// Stock returns the stock go/analysis passes bundled into the torq-lint
// vettool so one required CI job runs everything relevant to the
// repository's invariants: atomic (sloppy x = atomic.AddT(&x, ...)
// self-assignments), copylocks (a copied atomic.Int64 or mutex is a silent
// fork of the counter), lostcancel, and unusedresult. They ship with the Go
// toolchain, so — unlike Analyzers() — they keep no fixtures or invariant
// rows here.
func Stock() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomic.Analyzer,
		copylock.Analyzer,
		lostcancel.Analyzer,
		unusedresult.Analyzer,
	}
}
