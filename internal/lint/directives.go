package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// The //torq: directive namespace. Three function directives mark contract
// surfaces, and one line directive grants audited exceptions:
//
//	//torq:hotpath              (doc comment) function must be allocation-free
//	//torq:nolock               (doc comment) function must be atomics-only
//	//torq:ordered-merge        (doc comment) function must merge in index order
//	//torq:allow <rule> -- why  (on or above a line) suppress one rule there
//
// Directive comments follow the Go convention: no space after //, so plain
// prose mentioning "torq:" is never parsed as a directive.
const (
	dirHotpath      = "hotpath"
	dirNolock       = "nolock"
	dirOrderedMerge = "ordered-merge"
	dirAllow        = "allow"
)

// allowRules are the rule names //torq:allow may name. Each corresponds to
// the analyzer that honors the exception.
var allowRules = map[string]bool{
	"floateq":    true, // floatbits
	"maprange":   true, // detrange
	"nondet":     true, // nondet
	"hotalloc":   true, // hotalloc
	"nolock":     true, // nolocktelemetry
	"atomicmix":  true, // atomicmix
	"mergeorder": true, // mergeorder
}

// directive is one parsed //torq: comment.
type directive struct {
	pos  token.Pos
	name string // "hotpath", "nolock", "ordered-merge", "allow", or unrecognized text
	arg  string // first argument (the rule name, for allow)
	rest string // anything after the argument
}

// parseDirective parses c as a //torq: directive, reporting ok=false for
// ordinary comments.
func parseDirective(c *ast.Comment) (d directive, ok bool) {
	text, found := strings.CutPrefix(c.Text, "//torq:")
	if !found {
		return d, false
	}
	d.pos = c.Slash
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return d, true // bare "//torq:" — invalid, caught by torqdirective
	}
	d.name = fields[0]
	if len(fields) > 1 {
		d.arg = fields[1]
		d.rest = strings.Join(fields[2:], " ")
	}
	return d, true
}

// hasFuncDirective reports whether decl's doc comment carries the named
// function directive.
func hasFuncDirective(decl *ast.FuncDecl, name string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c); ok && d.name == name {
			return true
		}
	}
	return false
}

// allowIndex records, per rule, the source lines where a //torq:allow
// comment suppresses findings: the directive's own line (trailing comment)
// and the line after it (comment-above idiom). Each directive is one
// allowEntry shared by both line keys, so a suppression through either key
// marks the directive used — the stale-allow check reports the rest.
type allowIndex map[string]map[allowKey]*allowEntry

type allowKey struct {
	file string
	line int
}

type allowEntry struct {
	pos  token.Pos
	used bool
}

// buildAllowIndex scans every comment in files for //torq:allow directives.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || d.name != dirAllow || !allowRules[d.arg] {
					continue
				}
				p := fset.Position(d.pos)
				m := idx[d.arg]
				if m == nil {
					m = make(map[allowKey]*allowEntry)
					idx[d.arg] = m
				}
				e := &allowEntry{pos: d.pos}
				m[allowKey{p.Filename, p.Line}] = e
				m[allowKey{p.Filename, p.Line + 1}] = e
			}
		}
	}
	return idx
}

// allowed reports whether rule findings at pos are suppressed, marking the
// suppressing directive as used.
func (idx allowIndex) allowed(fset *token.FileSet, pos token.Pos, rule string) bool {
	m := idx[rule]
	if m == nil {
		return false
	}
	p := fset.Position(pos)
	e := m[allowKey{p.Filename, p.Line}]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

// reportStale flags every //torq:allow directive for rule that suppressed
// nothing during this pass: a refactor that fixed the finding must also drop
// the waiver, or the annotation rots into misdocumentation. Each analyzer
// calls this for the rules it owns, after its own traversal consulted
// allowed() for every candidate finding. Analyzers that exempt _test.go
// files never consult allows there, so they pass skipTestFiles.
func (idx allowIndex) reportStale(pass *analysis.Pass, rule string, skipTestFiles bool) {
	seen := make(map[token.Pos]bool)
	var stale []token.Pos
	//torq:allow maprange -- positions are sorted below before reporting
	for _, e := range idx[rule] {
		if e.used || seen[e.pos] {
			continue
		}
		seen[e.pos] = true
		if skipTestFiles && strings.HasSuffix(pass.Fset.Position(e.pos).Filename, "_test.go") {
			continue
		}
		stale = append(stale, e.pos)
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, pos := range stale {
		pass.Reportf(pos, "stale //torq:allow %s: no %s diagnostic is suppressed here — the finding is gone, drop the waiver", rule, rule)
	}
}

// TorqDirective validates the //torq: namespace: unknown directives,
// misplaced function directives, and allow comments naming nonexistent
// rules are all errors, so a typo cannot silently disable enforcement.
var TorqDirective = &analysis.Analyzer{
	Name: "torqdirective",
	Doc:  "check that //torq: directives are well-formed, known, and correctly placed",
	Run:  runTorqDirective,
}

func runTorqDirective(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		// Function directives are only honored in FuncDecl doc comments;
		// collect those comment groups so strays can be flagged.
		funcDocs := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				switch d.name {
				case dirHotpath, dirNolock, dirOrderedMerge:
					if !funcDocs[cg] {
						pass.Reportf(d.pos, "//torq:%s must be in a function's doc comment", d.name)
					} else if d.arg != "" {
						pass.Reportf(d.pos, "//torq:%s takes no arguments (got %q)", d.name, d.arg)
					}
				case dirAllow:
					switch {
					case d.arg == "":
						pass.Reportf(d.pos, "//torq:allow needs a rule name (one of %s)", allowRuleList())
					case !allowRules[d.arg]:
						pass.Reportf(d.pos, "//torq:allow %s: unknown rule (one of %s)", d.arg, allowRuleList())
					case d.rest != "" && !strings.HasPrefix(d.rest, "--"):
						pass.Reportf(d.pos, "//torq:allow %s: reason must follow a -- separator", d.arg)
					}
				case "":
					pass.Reportf(d.pos, "bare //torq: directive")
				default:
					pass.Reportf(d.pos, "unknown //torq: directive %q (known: hotpath, nolock, ordered-merge, allow)", d.name)
				}
			}
		}
	}
	return nil, nil
}

func allowRuleList() string {
	names := make([]string, 0, len(allowRules))
	for r := range allowRules {
		names = append(names, r)
	}
	// Deterministic order for diagnostics (and for detrange's own rule).
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}

// pkgMatch reports whether pkgPath falls under any comma-separated prefix in
// list ("*" matches everything). Analyzers use it to scope rules to the
// repository's packages (default prefix "repro") while fixtures opt in by
// flag.
func pkgMatch(pkgPath, list string) bool {
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if p == "*" || pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
