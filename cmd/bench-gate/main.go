// Command bench-gate is the CI regression gate for the root benchmark rows:
// it compares the change's `go test -bench` output against its parent's,
// both measured on the same runner in alternated sessions, and fails when a
// row got slower than the tolerance allows.
//
// A row's cost on each side is its minimum ns/op over every line of that
// side's output, so over every -count repeat of every session: the minimum
// is the reading least contaminated by contention, and taking it over
// several alternated sessions keeps a burst that lands on one side from
// reading as a regression. The gate fails when
//
//	change[row] / parent[row] > 1 + tol
//
// for a row the parent measured, when such a row is missing from the
// change's output, or when a -require name matches no row of the change.
// Rows only the change measured are reported as new and not compared.
//
// Usage:
//
//	bench-gate -parent bench-parent.txt -change bench-change.txt -tol 0.35 -require Sharded,Dist
//
// Exit status 1 means the gate failed, 2 that an input could not be read or
// parsed.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op`)

// parseBench returns each benchmark's minimum ns/op over every line of a
// `go test -bench` output. A benchmark line whose ns/op is not a positive
// finite number is an error.
func parseBench(out string) (map[string]float64, error) {
	rows := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("bad ns/op %q in %q", m[2], strings.TrimSpace(line))
		}
		if prev, ok := rows[m[1]]; !ok || v < prev {
			rows[m[1]] = v
		}
	}
	return rows, nil
}

// gate writes the row-by-row comparison to w and reports whether the change
// passes: no parent row slower than 1+tol times, none missing, and every
// required name matching a row of the change.
func gate(w io.Writer, parent, change map[string]float64, tol float64, require []string) bool {
	if len(parent) == 0 {
		fmt.Fprintln(w, "bench-gate: the parent output holds no benchmark rows")
		return false
	}
	pass := true
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "benchmark", "parent ns/op", "change ns/op", "ratio")
	for _, name := range slices.Sorted(maps.Keys(parent)) {
		c, ok := change[name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.0f %14s %8s MISSING from change\n", name, parent[name], "-", "-")
			pass = false
			continue
		}
		ratio := c / parent[name]
		status := "ok"
		if ratio > 1+tol {
			status = "REGRESSION"
			pass = false
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %7.3fx %s\n", name, parent[name], c, ratio, status)
	}
	for _, name := range slices.Sorted(maps.Keys(change)) {
		if _, ok := parent[name]; !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %8s new\n", name, "-", change[name], "-")
		}
	}
	for _, req := range require {
		switch {
		case !anyContains(change, req):
			fmt.Fprintf(w, "required %q: no row of the change matches\n", req)
			pass = false
		case !anyContains(parent, req):
			fmt.Fprintf(w, "required %q: new, no row of the parent matches\n", req)
		}
	}
	return pass
}

func anyContains(rows map[string]float64, sub string) bool {
	//torq:allow maprange -- existence scan, any order finds the same answer
	for name := range rows {
		if strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

func main() {
	parentPath := flag.String("parent", "bench-parent.txt", "`go test -bench` output of the parent build")
	changePath := flag.String("change", "bench-change.txt", "`go test -bench` output of the change, from the same runner")
	tol := flag.Float64("tol", 0.35, "allowed slowdown of a row before failing (0.35 = +35%)")
	require := flag.String("require", "", "comma-separated substrings that must each match a row of the change (e.g. \"Sharded\"), so a variant that silently stops being measured fails the gate")
	flag.Parse()

	if !(*tol >= 0) || math.IsInf(*tol, 1) {
		fmt.Fprintf(os.Stderr, "bench-gate: -tol %v: want a finite value ≥ 0\n", *tol)
		os.Exit(2)
	}
	var sides [2]map[string]float64
	for i, path := range []string{*parentPath, *changePath} {
		data, err := os.ReadFile(path)
		if err == nil {
			sides[i], err = parseBench(string(data))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-gate: %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	var reqs []string
	for _, r := range strings.Split(*require, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reqs = append(reqs, r)
		}
	}
	if !gate(os.Stdout, sides[0], sides[1], *tol, reqs) {
		fmt.Printf("bench-gate: FAIL (tolerance +%.0f%%)\n", 100**tol)
		os.Exit(1)
	}
	fmt.Println("bench-gate: PASS")
}
