package repro

// Doc-drift gates: documentation that describes code the tests can see is
// checked against that code, so the docs cannot silently rot. Three
// contracts are pinned here: the README engine table tracks the engine
// registry, the architecture document names every analyzer torq-lint
// ships, and every internal package carries real package documentation
// (with an `# Invariants` section where the package participates in the
// determinism story).

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/qsim"
)

// TestReadmeEngineTableMatchesRegistry parses the README's engine table and
// requires exactly the engines qsim.EngineKinds() registers, in
// presentation order, with the registered flag names — so landing an engine
// without updating the README (or vice versa) fails the build.
func TestReadmeEngineTableMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Rows look like: | `EngineSharded` | `sharded` | ... |
	rowRE := regexp.MustCompile("(?m)^\\| `(Engine[A-Za-z0-9]+)` \\| `([a-z0-9]+)` \\|")
	var gotNames, gotFlags []string
	for _, m := range rowRE.FindAllStringSubmatch(string(readme), -1) {
		gotNames = append(gotNames, m[1])
		gotFlags = append(gotFlags, m[2])
	}
	kinds := qsim.EngineKinds()
	if len(gotNames) != len(kinds) {
		t.Fatalf("README engine table has %d rows %v, registry has %d engines (%s)",
			len(gotNames), gotNames, len(kinds), qsim.EngineNames())
	}
	for i, k := range kinds {
		if gotFlags[i] != k.String() {
			t.Errorf("README engine table row %d: flag %q, registry says %q", i, gotFlags[i], k)
		}
		parsed, err := qsim.ParseEngine(gotFlags[i])
		if err != nil || parsed != k {
			t.Errorf("README engine table row %d: flag %q does not parse back to %v", i, gotFlags[i], k)
		}
	}
	// The flag synopsis must be the registry's canonical string, not a
	// hand-maintained copy.
	if !strings.Contains(string(readme), "`-engine "+qsim.EngineNames()+"`") {
		t.Errorf("README -engine synopsis drifted from qsim.EngineNames() = %q", qsim.EngineNames())
	}
}

// TestReadmeLinksDocs keeps the README pointing at the architecture
// document; a quickstart that loses its deep links is how docs go unread.
func TestReadmeLinksDocs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"docs/ARCHITECTURE.md"} {
		if !strings.Contains(string(readme), "("+doc+")") {
			t.Errorf("README does not link %s", doc)
		}
		if _, err := os.Stat(doc); err != nil {
			t.Errorf("linked document missing: %v", err)
		}
	}
}

// TestLintSuiteDocumentedAndFixtured ties the analyzer registry to its two
// proof surfaces: every analyzer torq-lint ships must be named in the
// "Invariants → enforcement" table in docs/ARCHITECTURE.md, and must keep a
// broken-fixture package under internal/lint/testdata/src — deleting either
// (or landing an analyzer without them) fails the build.
func TestLintSuiteDocumentedAndFixtured(t *testing.T) {
	arch, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The nolocktelemetry fixture is the two-package nolock/ tree; every
	// other analyzer's fixture directory carries its name.
	fixtureDir := map[string]string{"nolocktelemetry": "nolock"}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(string(arch), "`"+a.Name+"`") {
			t.Errorf("docs/ARCHITECTURE.md invariants table does not mention analyzer `%s`", a.Name)
		}
		rel := a.Name
		if d, ok := fixtureDir[a.Name]; ok {
			rel = d
		}
		dir := filepath.Join("internal", "lint", "testdata", "src", rel)
		goFiles := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				goFiles++
			}
			return nil
		})
		if err != nil || goFiles == 0 {
			t.Errorf("analyzer %s has no fixture under %s (err=%v) — each analyzer keeps a broken fixture proving it fires", a.Name, dir, err)
		}
	}
	// The bundled stock vet passes keep no fixtures of their own (upstream
	// owns those), but the architecture doc must still say they ship.
	for _, a := range lint.Stock() {
		if !strings.Contains(string(arch), "`"+a.Name+"`") {
			t.Errorf("docs/ARCHITECTURE.md does not mention bundled stock analyzer `%s`", a.Name)
		}
	}
}

// TestInternalPackagesDocumented walks every internal/ package and rejects
// ones without a package-level doc comment; the four packages that carry
// the determinism/telemetry contracts must additionally state them under
// an `# Invariants` heading.
func TestInternalPackagesDocumented(t *testing.T) {
	needInvariants := map[string]bool{"qsim": true, "dist": true, "par": true, "ftdc": true}
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var doc string
		for _, pkg := range pkgs { //torq:allow maprange -- longest-doc max reduction
			for _, f := range pkg.Files {
				if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
					doc = f.Doc.Text()
				}
			}
		}
		name := filepath.Base(dir)
		if strings.TrimSpace(doc) == "" {
			t.Errorf("internal/%s has no package doc comment — every internal package documents its role", name)
			continue
		}
		if needInvariants[name] && !strings.Contains(doc, "# Invariants") {
			t.Errorf("internal/%s package doc lacks an `# Invariants` section stating its determinism/telemetry contract", name)
		}
	}
}
