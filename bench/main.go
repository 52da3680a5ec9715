// Command bench is the end-to-end QPINN training and inference benchmark.
// It runs the workloads in workloads.go — real training steps on the
// paper's Maxwell problems and a paper-scale inference sweep — each in its
// own re-executed child process, checks their outputs, and prints every
// end-to-end metric (or, traced, every per-layer metric) by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 151, "failed": 0, "metrics": {"points_per_ys": {"value": 94.8, "unit": "points/ys"}, ...}}
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-runs N] [-trace 0|1|DIR] [-json out.json]
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// childEnv marks a re-executed child: it runs exactly one workload and
// prints its runRecord as JSON.
const childEnv = "QPINN_BENCH_CHILD"

// childTimeout bounds one child run; past it the run is killed and counted
// as failed.
const childTimeout = 170 * time.Second

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

type cliFlags struct {
	workloads string
	seed      int64
	seconds   float64
	runs      int
	trace     string
	jsonOut   string
	compare   bool
}

func parseFlags(args []string, stderr io.Writer) (cliFlags, []string, error) {
	var f cliFlags
	fs := flag.NewFlagSet("qpinn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workloads, "workload", "", "comma-separated workloads to run (default: all)")
	fs.StringVar(&f.workloads, "workloads", "", "alias of -workload")
	fs.Int64Var(&f.seed, "seed", 1, "input seed: orders the points fed to each model")
	fs.Float64Var(&f.seconds, "seconds", 10, "minimum measured seconds per run (a run always completes its workload's step budget)")
	fs.IntVar(&f.runs, "runs", 1, "rounds; each round runs every workload once, rotating their order")
	fs.StringVar(&f.trace, "trace", "0", "0: untraced end-to-end runs; 1: traced per-layer runs; a directory: traced runs that also write Chrome traces and layer tables there")
	fs.StringVar(&f.jsonOut, "json", "", "write the session (environment and every run) to this file")
	fs.BoolVar(&f.compare, "compare", false, "compare two session files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return f, nil, err
	}
	if f.runs < 1 {
		return f, nil, fmt.Errorf("-runs %d: need at least 1", f.runs)
	}
	if f.seconds < 0 || math.IsNaN(f.seconds) {
		return f, nil, fmt.Errorf("-seconds %v: need a non-negative duration", f.seconds)
	}
	return f, fs.Args(), nil
}

// traced reports whether -trace asks for traced runs, and the directory
// for trace files if one was given.
func (f cliFlags) traced() (bool, string) {
	switch f.trace {
	case "", "0":
		return false, ""
	case "1":
		return true, ""
	}
	return true, f.trace
}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	f, rest, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if os.Getenv(childEnv) == "1" {
		return childMain(f, start, stdout, stderr)
	}
	if f.compare {
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "usage: -compare parent.json change.json")
			return 2
		}
		regressed, err := compareFiles(rest[0], rest[1], stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if len(rest) > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", rest)
		return 2
	}
	sel, err := lookupWorkloads(f.workloads)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return session(f, sel, stdout, stderr)
}

// childMain runs one workload in this process and prints its record.
func childMain(f cliFlags, start time.Time, stdout, stderr io.Writer) int {
	sel, err := lookupWorkloads(f.workloads)
	if err != nil || len(sel) != 1 {
		fmt.Fprintf(stderr, "child: need exactly one workload (%v)\n", err)
		return 2
	}
	traced, dir := f.traced()
	rec := runWorkload(sel[0], runOpts{seed: f.seed, seconds: f.seconds, traced: traced, traceDir: dir, start: start})
	b, err := json.Marshal(finiteOnly(rec))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// finiteOnly drops metrics JSON cannot carry (NaN, ±Inf: a failed run's
// missing results); the run is already marked failed.
func finiteOnly(rec runRecord) runRecord {
	m := map[string]float64{}
	for _, def := range slices.Concat(endToEnd, reported, perLayer) {
		if v, ok := rec.Metrics[def.name]; ok && finite(v) {
			m[def.name] = v
		}
	}
	rec.Metrics = m
	return rec
}

// sessionFile is what -json writes and -compare reads.
type sessionFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// session runs every selected workload -runs times in child processes,
// rotating the workload order each round, then prints the summary.
func session(f cliFlags, sel []*workload, stdout, stderr io.Writer) int {
	traced, _ := f.traced()
	sf := sessionFile{Env: currentEnvironment(f.seed, f.seconds, traced)}
	fmt.Fprintf(stdout, "qpinn-bench: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s seed=%d seconds=%g traced=%v\n",
		sf.Env.NProc, sf.Env.GOMAXPROCS, sf.Env.CPU, sf.Env.Go, sf.Env.Commit, f.seed, f.seconds, traced)
	for r := 0; r < f.runs; r++ {
		for j := range sel {
			w := sel[(j+r)%len(sel)]
			rec := runChild(w, f, stderr)
			rec.Round = r
			sf.Runs = append(sf.Runs, rec)
			printRun(stdout, rec)
		}
	}
	printSummary(stdout, sel, sf.Runs, traced)
	if f.jsonOut != "" {
		if err := writeJSONFile(f.jsonOut, sf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, ok := resultLine(sel, sf.Runs, traced)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload and parses its record.
// A child that crashes, hangs past childTimeout, or prints no record is a
// failed run; the session goes on with the next one.
func runChild(w *workload, f cliFlags, stderr io.Writer) runRecord {
	failed := func(format string, args ...any) runRecord {
		traced, _ := f.traced()
		rec := runRecord{Workload: w.name, Seed: f.seed, Traced: traced, Attempted: 1}
		rec.fail(format, args...)
		return rec
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("locating the benchmark binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name, "-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-trace", f.trace)
	cmd.Env = childEnviron()
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	out, runErr := cmd.Output()
	line := lastLine(out)
	var rec runRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.Workload != w.name {
		return failed("child run produced no result (%v): %s", runErr, strings.TrimSpace(string(out)))
	}
	if runErr != nil {
		rec.fail("child run: %v", runErr)
		rec.Correct = false
	}
	return rec
}

// childGOMAXPROCS pins every workload process, and the dist workers it
// spawns, to one scheduler thread. On a 2-vCPU shared host, runs with the
// default GOMAXPROCS spread 11–29% (interquartile range over median, ten
// runs) because each par region waits for the noisier second vCPU; pinned,
// the same runs spread a few percent, which is what lets the bounds in
// BENCHMARK.json tell a regression from the host.
const childGOMAXPROCS = 1

// childEnviron is this process's environment with the child marker set,
// GOMAXPROCS pinned, and the program's TORQ_* knobs removed, so every run
// measures the defaults (TORQ_TRACE, for one, would trace an untraced run).
func childEnviron() []string {
	env := []string{childEnv + "=1", "GOMAXPROCS=" + strconv.Itoa(childGOMAXPROCS)}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "TORQ_") && !strings.HasPrefix(kv, childEnv+"=") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func currentEnvironment(seed int64, seconds float64, traced bool) environment {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: childGOMAXPROCS,
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
		Seed: seed, Seconds: seconds, Traced: traced,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The benchmark also runs from exported trees that are not git
	// repositories; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func printRun(w io.Writer, rec runRecord) {
	status := "ok"
	if !rec.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "round %d %-24s %-6s steps=%d attempted=%d failed=%d", rec.Round, rec.Workload, status, rec.Steps, rec.Attempted, rec.Failed)
	for _, def := range metricsFor(rec.Traced) {
		if v, ok := rec.Metrics[def.name]; ok && def.bound > 0 {
			fmt.Fprintf(w, " %s=%.4g", def.name, v)
		}
	}
	fmt.Fprintln(w)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "    error: %s\n", e)
	}
}

// valuesOf collects one metric over a workload's correct runs, in run order.
func valuesOf(runs []runRecord, workload, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && r.Correct {
			xs = append(xs, v)
		}
	}
	return xs
}

func printSummary(w io.Writer, sel []*workload, runs []runRecord, traced bool) {
	defs := perLayer
	if !traced {
		defs = slices.Concat(endToEnd, reported)
	}
	for _, wl := range sel {
		fmt.Fprintf(w, "\n%s (median, quartiles over correct runs)\n", wl.name)
		for _, def := range defs {
			xs := valuesOf(runs, wl.name, def.name)
			if len(xs) == 0 {
				fmt.Fprintf(w, "  %-26s %-9s no value\n", def.name, def.unit)
				continue
			}
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-26s %-9s %14.6g  [%.6g, %.6g]  n=%d\n", def.name, def.unit, q2, q1, q3, len(xs))
		}
	}
}

// resultLine is the final JSON line: correctness and operation counts over
// every run, and each metric's median over the correct runs. With several
// workloads the metric names carry a "<workload>/" prefix.
func resultLine(sel []*workload, runs []runRecord, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(runs) > 0, Metrics: map[string]value{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for _, wl := range sel {
		for _, def := range metricsFor(traced) {
			xs := valuesOf(runs, wl.name, def.name)
			if len(xs) == 0 {
				continue
			}
			key := def.name
			if len(sel) > 1 {
				key = wl.name + "/" + def.name
			}
			out.Metrics[key] = value{median(xs), def.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil { // unreachable: every value came from a finite JSON number
		return `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`, false
	}
	return string(b), out.Correct
}
