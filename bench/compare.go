package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compareMetric.
const (
	verdictImproved   = "improved"
	verdictSame       = "within-bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// comparison is one end-to-end metric on one workload, parent vs change.
type comparison struct {
	parentMed, changeMed float64
	wins, pairs          int
	verdict              string
}

// compareMetric applies the benchmark's rule to one metric, pairing the
// i-th parent run with the i-th change run:
//   - improved: the change wins at least nine tenths of the pairs (ties count
//     for neither side) and its median beats the parent's by more than the
//     parent's interquartile range;
//   - unresolved: the spread (interquartile range over median) of either side
//     exceeds the metric's bound, unless every change run beats every parent
//     run;
//   - regressed: the change's median is worse than the parent's by more than
//     the bound;
//   - within-bound otherwise.
func compareMetric(m metric, parent, change []float64) comparison {
	c := comparison{parentMed: median(parent), changeMed: median(change), pairs: min(len(parent), len(change))}
	better := func(a, b float64) bool {
		if m.higher {
			return a > b
		}
		return a < b
	}
	for i := 0; i < c.pairs; i++ {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	q1, _, q3 := quartiles(parent)
	worse := (c.changeMed - c.parentMed) / math.Abs(c.parentMed)
	if m.higher {
		worse = -worse
	}
	switch {
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && better(c.changeMed, c.parentMed) &&
		math.Abs(c.changeMed-c.parentMed) > q3-q1:
		c.verdict = verdictImproved
	case max(relSpread(parent), relSpread(change)) > m.bound && !allBetter:
		c.verdict = verdictUnresolved
	case worse > m.bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictSame
	}
	return c
}

func readSession(path string) (sessionFile, error) {
	var s sessionFile
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// failures counts a workload's failed operations across a session's
// untraced runs.
func failures(s sessionFile, workload string) (failed, runs int) {
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			failed += r.Failed
			runs++
		}
	}
	return failed, runs
}

// compareFiles compares two session files (-json output of the parent and
// the change, run with the same settings) metric by metric and reports
// whether any metric regressed or the change failed more operations.
func compareFiles(parentPath, changePath string, w io.Writer) (regressed bool, err error) {
	parent, err := readSession(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readSession(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent: commit %s, seed %d, %gs runs\nchange: commit %s, seed %d, %gs runs\n",
		parent.Env.Commit, parent.Env.Seed, parent.Env.Seconds, change.Env.Commit, change.Env.Seed, change.Env.Seconds)
	compared := 0
	for _, wl := range workloads {
		pf, pn := failures(parent, wl.name)
		cf, cn := failures(change, wl.name)
		if pn == 0 || cn == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: failed operations parent %d, change %d\n", wl.name, pf, cf)
		if cf > pf {
			fmt.Fprintf(w, "  %s: the change fails more operations\n", verdictRegressed)
			regressed = true
		}
		for _, m := range endToEnd {
			p := valuesOf(untraced(parent.Runs), wl.name, m.name)
			c := valuesOf(untraced(change.Runs), wl.name, m.name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "  %-14s no values (parent %d, change %d runs)\n", m.name, len(p), len(c))
				regressed = regressed || len(p) > len(c)
				continue
			}
			r := compareMetric(m, p, c)
			compared++
			pq1, _, pq3 := quartiles(p)
			cq1, _, cq3 := quartiles(c)
			fmt.Fprintf(w, "  %-14s %-8s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change/parent %.4f  wins %d/%d  bound %.0f%%  %s\n",
				m.name, m.unit, r.parentMed, pq1, pq3, r.changeMed, cq1, cq3, r.changeMed/r.parentMed,
				r.wins, r.pairs, 100*m.bound, r.verdict)
			regressed = regressed || r.verdict == verdictRegressed
		}
	}
	if compared == 0 {
		return regressed, fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}
	return regressed, nil
}

func untraced(runs []runRecord) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out
}
