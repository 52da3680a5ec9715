// Package linttest is a self-contained driver for exercising the torq-lint
// analyzers against fixture packages under testdata/src. It is a small
// stand-in for golang.org/x/tools/go/analysis/analysistest, which needs the
// go/packages loader (and therefore a module-aware build environment); this
// harness parses and typechecks fixtures directly with go/parser + go/types,
// resolving stdlib imports through the compiler's source importer and
// fixture-local imports through the packages it already built, so the same
// tests run identically offline, in CI, and under `go test ./...`.
//
// Contract (the analysistest subset the fixtures use):
//
//   - A fixture line trailing-commented `// want "re"` must produce exactly
//     one diagnostic on that line matching the regexp; multiple quoted
//     regexps expect that many diagnostics in order of appearance.
//   - Diagnostics on lines without a want comment fail the test, as do want
//     comments that nothing matched.
//   - Facts exported while analyzing one fixture package are visible to the
//     analysis of packages listed after it, keyed by the shared type-checker
//     objects — the cross-package half of nolocktelemetry is tested this way.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
)

// Runner drives one or more analyzer runs over fixture packages, carrying
// typechecked packages and exported facts across runs.
type Runner struct {
	t        *testing.T
	fset     *token.FileSet
	srcDir   string // testdata/src root
	imported map[string]*pkgUnit
	objFacts map[types.Object][]analysis.Fact
	pkgFacts map[*types.Package][]analysis.Fact
}

type pkgUnit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// NewRunner returns a Runner rooted at dir (usually "testdata/src").
func NewRunner(t *testing.T, dir string) *Runner {
	return &Runner{
		t:        t,
		fset:     token.NewFileSet(),
		srcDir:   dir,
		imported: make(map[string]*pkgUnit),
		objFacts: make(map[types.Object][]analysis.Fact),
		pkgFacts: make(map[*types.Package][]analysis.Fact),
	}
}

// SetFlag sets an analyzer flag for the duration of the test.
func SetFlag(t *testing.T, a *analysis.Analyzer, name, value string) {
	t.Helper()
	f := a.Flags.Lookup(name)
	if f == nil {
		t.Fatalf("analyzer %s has no -%s flag", a.Name, name)
	}
	old := f.Value.String()
	if err := f.Value.Set(value); err != nil {
		t.Fatalf("setting %s -%s=%s: %v", a.Name, name, value, err)
	}
	t.Cleanup(func() { _ = f.Value.Set(old) })
}

// load parses and typechecks the fixture package whose sources live in
// srcDir/<rel>, registering it under import path <importPath>.
func (r *Runner) load(importPath, rel string) *pkgUnit {
	r.t.Helper()
	if u, ok := r.imported[importPath]; ok {
		return u
	}
	dir := filepath.Join(r.srcDir, rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		r.t.Fatalf("fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			r.t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		r.t.Fatalf("no fixture files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return r.fset.Position(files[i].Pos()).Filename < r.fset.Position(files[j].Pos()).Filename
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: &fixtureImporter{r: r}}
	pkg, err := conf.Check(importPath, r.fset, files, info)
	if err != nil {
		r.t.Fatalf("typechecking fixture %s: %v", importPath, err)
	}
	u := &pkgUnit{pkg: pkg, files: files, info: info}
	r.imported[importPath] = u
	return u
}

// fixtureImporter serves fixture-local packages from the Runner and
// everything else (the stdlib) from the toolchain's source importer.
type fixtureImporter struct {
	r   *Runner
	std types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if u, ok := fi.r.imported[path]; ok {
		return u.pkg, nil
	}
	// Fixture-relative import: resolve under srcDir by path suffix.
	if rel, ok := strings.CutPrefix(path, "repro/lintfixture/"); ok {
		return fi.r.load(path, rel).pkg, nil
	}
	if fi.std == nil {
		fi.std = importer.ForCompiler(fi.r.fset, "source", nil)
	}
	return fi.std.Import(path)
}

// Run analyzes the fixture package at srcDir/<rel> (import path
// "repro/lintfixture/<rel>" unless importPath overrides it) with a and
// checks its diagnostics against the fixture's // want comments.
func (r *Runner) Run(a *analysis.Analyzer, rel string, importPath ...string) {
	r.t.Helper()
	path := "repro/lintfixture/" + rel
	if len(importPath) > 0 {
		path = importPath[0]
	}
	u := r.load(path, rel)
	diags := r.analyze(a, u)
	r.checkWants(u, diags)
}

// RunExpectClean analyzes the package and fails on any diagnostic,
// regardless of want comments — the shape of the "annotated code passes"
// half of each analyzer test.
func (r *Runner) RunExpectClean(a *analysis.Analyzer, rel string, importPath ...string) {
	r.t.Helper()
	path := "repro/lintfixture/" + rel
	if len(importPath) > 0 {
		path = importPath[0]
	}
	u := r.load(path, rel)
	for _, d := range r.analyze(a, u) {
		r.t.Errorf("%s: unexpected diagnostic: %s", r.fset.Position(d.Pos), d.Message)
	}
}

func (r *Runner) analyze(a *analysis.Analyzer, u *pkgUnit) []analysis.Diagnostic {
	r.t.Helper()
	var diags []analysis.Diagnostic
	results := make(map[*analysis.Analyzer]interface{})
	for _, dep := range a.Requires {
		if dep != inspect.Analyzer {
			r.t.Fatalf("harness supports only the inspect dependency, %s requires %s", a.Name, dep.Name)
		}
		res, err := dep.Run(r.newPass(dep, u, nil, nil))
		if err != nil {
			r.t.Fatalf("%s: %v", dep.Name, err)
		}
		results[dep] = res
	}
	pass := r.newPass(a, u, results, func(d analysis.Diagnostic) { diags = append(diags, d) })
	if _, err := a.Run(pass); err != nil {
		r.t.Fatalf("%s: %v", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

func (r *Runner) newPass(a *analysis.Analyzer, u *pkgUnit, results map[*analysis.Analyzer]interface{}, report func(analysis.Diagnostic)) *analysis.Pass {
	if report == nil {
		report = func(analysis.Diagnostic) {}
	}
	return &analysis.Pass{
		Analyzer:   a,
		Fset:       r.fset,
		Files:      u.files,
		Pkg:        u.pkg,
		TypesInfo:  u.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   results,
		Report:     report,
		ReadFile:   os.ReadFile,
		ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
			for _, f := range r.objFacts[obj] {
				if reflect.TypeOf(f) == reflect.TypeOf(fact) {
					reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
					return true
				}
			}
			return false
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			r.objFacts[obj] = append(r.objFacts[obj], fact)
		},
		ImportPackageFact: func(pkg *types.Package, fact analysis.Fact) bool {
			for _, f := range r.pkgFacts[pkg] {
				if reflect.TypeOf(f) == reflect.TypeOf(fact) {
					reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(f).Elem())
					return true
				}
			}
			return false
		},
		ExportPackageFact: func(fact analysis.Fact) {
			r.pkgFacts[u.pkg] = append(r.pkgFacts[u.pkg], fact)
		},
		AllObjectFacts: func() []analysis.ObjectFact {
			var out []analysis.ObjectFact
			//torq:allow maprange -- fact sets, callers treat them as unordered
			for obj, fs := range r.objFacts {
				for _, f := range fs {
					out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
				}
			}
			return out
		},
		AllPackageFacts: func() []analysis.PackageFact {
			var out []analysis.PackageFact
			//torq:allow maprange -- fact sets, callers treat them as unordered
			for pkg, fs := range r.pkgFacts {
				for _, f := range fs {
					out = append(out, analysis.PackageFact{Package: pkg, Fact: f})
				}
			}
			return out
		},
	}
}

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// checkWants compares diagnostics against // want comments, both keyed by
// (file, line).
func (r *Runner) checkWants(u *pkgUnit, diags []analysis.Diagnostic) {
	r.t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range u.files {
		name := r.fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			r.t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				pat, err := regexp.Compile(arg[1])
				if err != nil {
					r.t.Fatalf("%s:%d: bad want regexp: %v", name, i+1, err)
				}
				k := key{name, i + 1}
				wants[k] = append(wants[k], pat)
			}
		}
	}
	for _, d := range diags {
		p := r.fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		ws := wants[k]
		if len(ws) == 0 {
			r.t.Errorf("%s: unexpected diagnostic: %s", fmt.Sprintf("%s:%d", p.Filename, p.Line), d.Message)
			continue
		}
		if !ws[0].MatchString(d.Message) {
			r.t.Errorf("%s:%d: diagnostic %q does not match want %q", p.Filename, p.Line, d.Message, ws[0])
		}
		if len(ws) == 1 {
			delete(wants, k)
		} else {
			wants[k] = ws[1:]
		}
	}
	//torq:allow maprange -- leftover-want errors, any order fails the test
	for k, ws := range wants {
		for _, w := range ws {
			r.t.Errorf("%s:%d: no diagnostic matched want %q", k.file, k.line, w)
		}
	}
}
