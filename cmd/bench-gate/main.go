// Command bench-gate is the CI bench-trend regression gate: it compares a
// fresh `go test -bench` output against the committed BENCH_engine.json
// baseline and fails when a benchmark regresses beyond a tolerance band.
//
// CI runners and the machine that recorded the baseline differ in absolute
// speed, so the gate compares machine-independent RELATIVE costs: every
// benchmark is normalized by a reference cost measured in the same run, the
// geometric mean of the -ref benchmarks (default Table2NaiveSimulator and
// Table2KronSimulator, the two Table 2 dense comparators: oracle code whose
// workloads stay fixed). For each benchmark present in both the baseline and
// the fresh output, the gate computes
//
//	drift = (fresh[b]/fresh[ref]) / (base[b]/base[ref])
//
// and fails when drift > 1 + tol: the benchmark got slower relative to the
// reference than the baseline says it should be. Each row is the minimum of
// its repeats in the fresh output, so a reference row that the bench smoke
// runs in more than one step is the minimum over all of those processes. A
// lost fusion pass or a de-optimized kernel shows up as drift ≥ 2 and trips
// the gate even on a noisy runner; -tol defaults to 0.5 so ordinary
// scheduling jitter does not. -warn-only downgrades failures to warnings for
// slow matrix runners.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Benchmarks map[string]float64 `json:"benchmarks_ns_per_op"`
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

func parseBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(data), -1) {
		if m := benchLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bench-gate: bad ns/op in %q: %v", line, err)
			}
			// Keep the best (lowest) time when -count repeats a benchmark:
			// the minimum is the least noise-contaminated estimate.
			if prev, ok := out[m[1]]; !ok || v < prev {
				out[m[1]] = v
			}
		}
	}
	return out, nil
}

// refCost returns the geometric mean of the refs' times in m, or false when
// one of them is missing or not positive.
func refCost(m map[string]float64, refs []string) (float64, bool) {
	var logSum float64
	for _, r := range refs {
		v, ok := m[r]
		if !ok || v <= 0 {
			return 0, false
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(refs))), true
}

func main() {
	basePath := flag.String("baseline", "BENCH_engine.json", "committed baseline JSON")
	benchPath := flag.String("bench", "bench-smoke.txt", "fresh `go test -bench` output")
	ref := flag.String("ref", "Table2NaiveSimulator,Table2KronSimulator", "comma-separated reference benchmarks; their geometric mean normalizes machine speed")
	tol := flag.Float64("tol", 0.5, "allowed relative-cost drift before failing (0.5 = +50%)")
	warnOnly := flag.Bool("warn-only", false, "report regressions without failing (slow matrix runners)")
	require := flag.String("require", "", "comma-separated substrings that must each match a benchmark present in BOTH the baseline and the fresh output (e.g. \"Sharded\") — a variant that silently stops being measured fails the gate instead of being skipped")
	flag.Parse()

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(2)
	}
	fresh, err := parseBench(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(2)
	}
	refs := strings.Split(*ref, ",")
	baseRef, okB := refCost(base.Benchmarks, refs)
	freshRef, okF := refCost(fresh, refs)
	if !okB || !okF {
		fmt.Fprintf(os.Stderr, "bench-gate: reference %q missing from baseline or fresh output\n", *ref)
		os.Exit(2)
	}

	// Required variants must be covered on BOTH sides: the per-baseline check
	// below only catches benchmarks that vanish from the fresh output, not a
	// whole family (e.g. the sharded engine) that was never added to the
	// committed baseline in the first place.
	for _, req := range strings.Split(*require, ",") {
		req = strings.TrimSpace(req)
		if req == "" {
			continue
		}
		matches := func(m map[string]float64) bool {
			//torq:allow maprange -- existence scan, any order finds the same answer
			for name := range m {
				if strings.Contains(name, req) {
					return true
				}
			}
			return false
		}
		if !matches(base.Benchmarks) {
			fmt.Fprintf(os.Stderr, "bench-gate: required variant %q missing from baseline %s\n", req, *basePath)
			os.Exit(2)
		}
		if !matches(fresh) {
			fmt.Fprintf(os.Stderr, "bench-gate: required variant %q missing from fresh output %s\n", req, *benchPath)
			os.Exit(2)
		}
	}

	// Every baseline benchmark must appear in the fresh output: a unit that
	// silently stops running (bench-regex drift, a rename without a baseline
	// update) would otherwise pass the gate while losing coverage.
	baseNames := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	var names, missing []string
	for _, name := range baseNames {
		if slices.Contains(refs, name) {
			continue
		}
		if _, ok := fresh[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bench-gate: no overlapping benchmarks to compare")
		os.Exit(2)
	}

	failed := false
	for _, name := range missing {
		fmt.Printf("%-36s MISSING from fresh output\n", name)
		failed = true
	}
	fmt.Printf("%-36s %12s %12s %8s\n", "benchmark", "base rel", "fresh rel", "drift")
	for _, name := range names {
		baseRel := base.Benchmarks[name] / baseRef
		freshRel := fresh[name] / freshRef
		drift := freshRel / baseRel
		status := "ok"
		if drift > 1+*tol {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-36s %12.4f %12.4f %7.3fx %s\n", name, baseRel, freshRel, drift, status)
	}
	if failed {
		if *warnOnly {
			fmt.Println("bench-gate: regressions found (warn-only mode, not failing)")
			return
		}
		fmt.Println("bench-gate: FAIL — relative cost drifted beyond the tolerance band")
		os.Exit(1)
	}
	fmt.Println("bench-gate: PASS")
}
