package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/trace"
)

// A run sets its workload up setupsBefore times before its measured steps
// and setupsAfter times after them, and setup_s is the median of all seven,
// each in yardstick runs.
const setupsBefore, setupsAfter = 2, 5

// runOpts are one child run's settings.
type runOpts struct {
	seed     int64
	seconds  float64
	traced   bool
	traceDir string    // traced runs: write the Chrome trace and layer table here
	start    time.Time // child start, the origin of the first setup
}

// runRecord is one workload run, as the child reports it and the session
// file stores it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Round     int                `json:"round"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Steps     int                `json:"steps"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets the workload up, steps the instance for at least its
// budget and at least o.seconds, checks the results, sets up again, and
// reduces the measurements to the run's metrics.
func runWorkload(w *workload, o runOpts) runRecord {
	rec := runRecord{Workload: w.name, Seed: o.seed, Traced: o.traced}
	var ls *layerStats
	if o.traced {
		ls = newLayerStats(w, o.traceDir != "")
	}

	// Every set-up is followed by a yardstick run, and every measured step
	// too (see yardstick.go).
	ys := newYardstick()
	var setups, setupsYS []float64
	setUp := func(t0 time.Time) *instance {
		trace.SetEnabled(o.traced)
		in := w.setup(o.seed, ls)
		d := time.Since(t0)
		trace.SetEnabled(false)
		if ls != nil {
			ls.endSetup(t0)
		}
		y0 := time.Now()
		ys.run()
		setups = append(setups, d.Seconds())
		setupsYS = append(setupsYS, float64(d)/float64(time.Since(y0)))
		return in
	}
	closeDown := func(in *instance) float64 {
		workerRSS, err := in.closeAndWait()
		if err != nil {
			rec.fail("%v", err)
		}
		runtime.GC()
		return workerRSS
	}
	in := setUp(o.start)
	for i := 1; i < setupsBefore; i++ {
		closeDown(in)
		in = setUp(time.Now())
	}
	runtime.GC()

	budget := w.budget()
	target := w.target
	stepName := "epoch"
	if !w.training() {
		target = math.Inf(1) // inference: the sweep's L2 is the result
		stepName = "infer"
	}
	// steps holds each step's time without its evaluation; evals the
	// evaluations (training: core.Evaluate; inference: the sweep's L2);
	// yards the yardstick run that follows each step.
	var steps, evals, yards []float64
	finalL2 := math.NaN()
	stepsToL2, evalsToL2 := 0, 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < budget || time.Now().Before(deadline); i++ {
		var pr *probe
		if ls != nil && i%2 == 1 {
			pr = ls.beginStep()
		}
		t0 := time.Now()
		out := in.step(pr)
		t1 := time.Now()
		d := t1.Sub(t0) - out.evalTime
		rec.Attempted++
		if !out.ok {
			rec.fail("step %d: non-finite loss, gradient norm or output", i)
		}
		if pr != nil {
			if err := ls.endStep(pr, stepName, t0, t1, d); err != nil {
				rec.fail("step %d: %v", i, err)
			}
		} else if ls != nil {
			ls.plainMs = append(ls.plainMs, msOf(d))
		}
		steps = append(steps, msOf(d))
		y0 := time.Now()
		ys.run()
		yards = append(yards, msOf(time.Since(y0)))
		if !out.evaluated {
			continue
		}
		evals = append(evals, msOf(out.evalTime))
		if i >= budget {
			continue
		}
		if stepsToL2 == 0 && out.l2 <= target {
			stepsToL2, evalsToL2 = i+1, len(evals)
		}
		if i == budget-1 {
			finalL2 = out.l2
		}
	}
	rec.Steps = len(steps)

	rec.Attempted++ // the result check
	switch {
	case stepsToL2 == 0:
		rec.fail("L2 never reached the target %.3g within %d steps (final %.4g)", target, budget, finalL2)
	case !finite(finalL2):
		rec.fail("final L2 is %v", finalL2)
	case tailPercentile(len(steps)) < 90:
		rec.fail("%d steps leave fewer than ten beyond p10 and p90", len(steps))
	}
	if w.oracle != nil {
		rec.Attempted++
		if err := w.oracle(in); err != nil {
			rec.fail("oracle: %v", err)
		}
	}

	workerRSS := closeDown(in)
	for i := 0; i < setupsAfter; i++ {
		closeDown(setUp(time.Now()))
	}

	if ls != nil {
		evalCalls := evalsToL2
		if !w.training() {
			evalCalls = stepsToL2 // every inference step is an EvalFields call
		}
		rec.Metrics = ls.metrics(evalCalls, workerRSS)
		if o.traceDir != "" {
			if err := writeTraceFiles(o.traceDir, w.name, ls, rec.Metrics); err != nil {
				rec.fail("writing trace: %v", err)
			}
		}
	} else {
		rss, err := peakRSS("self")
		if err != nil {
			rec.fail("%v", err)
		}
		// Every step does the same work, so the time to the target is
		// priced at the whole run's mean step and evaluation, in yardstick
		// runs: the steps before the target alone are too few to be steady.
		toL2 := sum(steps[:stepsToL2]) + sum(evals[:evalsToL2])
		meanYard := sum(yards) / float64(len(yards))
		stepYS := sum(steps) / float64(len(steps)) / meanYard
		evalYS := sum(evals) / float64(len(evals)) / meanYard
		rec.Metrics = map[string]float64{
			"points_per_ys": float64(in.pointsPerStep()) / stepYS,
			"time_to_l2_ys": float64(stepsToL2)*stepYS + float64(evalsToL2)*evalYS,
			"final_l2":      finalL2,
			"setup_s":       median(setupsYS) * yardstickSeconds,
			"peak_rss_mb":   rss,

			"setup_wall_s":      median(setups),
			"step_ms_p10":       percentile(steps, 10),
			"step_ms_p50":       median(steps),
			"step_ms_p90":       percentile(steps, 90),
			"eval_ms_p50":       median(evals),
			"time_to_l2_wall_s": toL2 / 1000,
			"yardstick_ms":      median(yards),
		}
	}
	rec.Correct = rec.Failed == 0
	return rec
}

// writeTraceFiles writes <dir>/<workload>.trace.json (Chrome trace events,
// loadable in Perfetto) and <dir>/<workload>.layers.txt.
func writeTraceFiles(dir, name string, ls *layerStats, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeChromeTrace(filepath.Join(dir, name+".trace.json"), ls.spans, ls.ring); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".layers.txt"))
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s: per-layer metrics, %d traced steps (medians per step unless README.md says otherwise)\n", name, ls.steps)
	for _, def := range perLayer {
		fmt.Fprintf(f, "%-26s %14.4f %s\n", def.name, m[def.name], def.unit)
	}
	return f.Close()
}
