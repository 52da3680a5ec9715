package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer is run against its broken fixture under testdata/src; the
// fixture's want comments pin both the findings and the idioms/annotations
// that must stay clean. Deleting a want, or a fixture diagnostic appearing
// on an unmarked line, fails the test.

func TestDetRange(t *testing.T) {
	linttest.NewRunner(t, "testdata/src").Run(lint.DetRange, "detrange")
}

func TestFloatBits(t *testing.T) {
	linttest.NewRunner(t, "testdata/src").Run(lint.FloatBits, "floatbits")
}

func TestNonDet(t *testing.T) {
	linttest.SetFlag(t, lint.NonDet, "packages", "repro/lintfixture/nondet")
	linttest.NewRunner(t, "testdata/src").Run(lint.NonDet, "nondet")
}

func TestHotAlloc(t *testing.T) {
	linttest.NewRunner(t, "testdata/src").Run(lint.HotAlloc, "hotalloc")
}

// TestNoLockTelemetry analyzes the two-package fixture in dependency order:
// stats exports nolock facts for its clean functions, and collect's
// diagnostics prove the facts (not re-analysis) decide cross-package calls.
func TestNoLockTelemetry(t *testing.T) {
	r := linttest.NewRunner(t, "testdata/src")
	r.Run(lint.NoLockTelemetry, "nolock/stats")
	r.Run(lint.NoLockTelemetry, "nolock/collect")
}

func TestTorqDirective(t *testing.T) {
	linttest.NewRunner(t, "testdata/src").Run(lint.TorqDirective, "torqdirective")
}

func TestAtomicMix(t *testing.T) {
	linttest.SetFlag(t, lint.AtomicMix, "packages", "repro/lintfixture/atomicmix")
	linttest.NewRunner(t, "testdata/src").Run(lint.AtomicMix, "atomicmix")
}

func TestMergeOrder(t *testing.T) {
	linttest.NewRunner(t, "testdata/src").Run(lint.MergeOrder, "mergeorder")
}

// TestPackagesFlagScoping re-runs detrange with its -packages flag pointed
// away from the fixture's import path: every finding must disappear.
func TestPackagesFlagScoping(t *testing.T) {
	linttest.SetFlag(t, lint.DetRange, "packages", "repro/internal/qsim")
	linttest.NewRunner(t, "testdata/src").RunExpectClean(lint.DetRange, "detrange")
}

// TestAnalyzersWellFormed checks the multichecker surface: eight torq
// analyzers plus the bundled stock vet passes, unique names, documented, and
// every allow-rule owner present.
func TestAnalyzersWellFormed(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 8 {
		t.Fatalf("Analyzers() returned %d analyzers, want 8", len(as))
	}
	seen := map[string]bool{}
	for _, a := range append(lint.Analyzers(), lint.Stock()...) {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"torqdirective", "detrange", "floatbits", "nondet", "nolocktelemetry", "hotalloc", "atomicmix", "mergeorder"} {
		if !seen[name] {
			t.Errorf("Analyzers() is missing %q", name)
		}
	}
	for _, name := range []string{"atomic", "copylocks", "lostcancel", "unusedresult"} {
		if !seen[name] {
			t.Errorf("Stock() is missing %q", name)
		}
	}
}
