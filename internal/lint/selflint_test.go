package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfLint builds the torq-lint vettool and runs it over the whole
// module — the same invocation CI's lint job uses. The repo must stay clean
// under its own analyzers: any new finding either gets fixed or carries a
// reasoned //torq:allow, never lands silently.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-module self-lint")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "torq-lint")

	build := exec.Command("go", "build", "-o", bin, "./cmd/torq-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building torq-lint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("torq-lint found issues:\n%s", out)
	}
}

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestFixtureCoverage is the docs-gate for the analyzer suite: every
// analyzer torq-lint ships must keep a fixture package under testdata/src,
// so deleting a fixture (and with it the regression proof that the analyzer
// still fires) fails the build.
func TestFixtureCoverage(t *testing.T) {
	fixtures := map[string]string{
		"detrange":        "detrange",
		"floatbits":       "floatbits",
		"nondet":          "nondet",
		"hotalloc":        "hotalloc",
		"nolocktelemetry": "nolock/collect",
		"torqdirective":   "torqdirective",
		"atomicmix":       "atomicmix",
		"mergeorder":      "mergeorder",
	}
	//torq:allow maprange -- independent per-analyzer assertions, order-insensitive
	for name, rel := range fixtures {
		dir := filepath.Join("testdata", "src", rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture dir %s: %v", name, dir, err)
			continue
		}
		hasGo := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
			}
		}
		if !hasGo {
			t.Errorf("analyzer %s fixture dir %s has no .go files", name, dir)
		}
	}
}
