package main

import (
	"errors"
	"runtime"
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/qsim"
	"repro/internal/trace"
)

// traceRingSlots is the trace package's span-ring capacity. A traced step
// that publishes this many spans may have lost some, so it fails rather than
// report a partial breakdown.
const traceRingSlots = 4096

var errRingWrapped = errors.New("trace ring wrapped within one step")

type phase int

const (
	phaseBuild    phase = iota // maxwell.Build: loss assembly incl. the model forwards
	phaseBackward              // (*ad.Tape).Backward incl. the qsim adjoint
	phaseOpt                   // (*opt.Adam).Step
	phaseEval                  // core.Evaluate, or EvalFields on inference
	numPhases
)

// phaseNames name the benchmark's spans after the calls they time, apart
// from the program's own forward/backward pass spans.
var phaseNames = [numPhases]string{"maxwell.Build", "tape.Backward", "adam.Step", "evaluate"}

// phaseMetrics names each phase's per-layer metrics: wall time, self time
// (wall minus qsim pass time), heap allocations; "" is not reported.
var phaseMetrics = [numPhases][3]string{
	phaseBuild:    {"maxwell.build_ms", "maxwell.build_self_ms", "maxwell.build_allocs"},
	phaseBackward: {"ad.backward_ms", "ad.backward_self_ms", "ad.backward_allocs"},
	phaseOpt:      {"opt.step_ms"},
	phaseEval:     {"core.eval_ms", "core.eval_fields_self_ms"},
}

// probe times the layer calls of one traced step from outside the program:
// the call's wall time, the qsim pass time inside it (qsim.EngineStats), and
// its heap allocations (runtime.MemStats). Every untraced step passes a nil
// probe, on which all methods are no-ops.
type probe struct {
	ls    *layerStats
	marks [numPhases]phaseMark
	ran   [numPhases]bool
	wall  [numPhases]float64 // ms
	self  [numPhases]float64 // ms, wall minus qsim pass time
	alloc [numPhases]float64 // heap objects
	nodes int
}

type phaseMark struct {
	at      time.Time
	qsimNs  uint64
	mallocs uint64
}

func (p *probe) begin(ph phase) {
	if p == nil {
		return
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := qsim.EngineStats()
	p.marks[ph] = phaseMark{at: time.Now(), qsimNs: s.FwdNanos + s.BwdNanos, mallocs: mem.Mallocs}
}

func (p *probe) end(ph phase) {
	if p == nil {
		return
	}
	at := time.Now()
	s := qsim.EngineStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m := p.marks[ph]
	wall := at.Sub(m.at)
	p.ran[ph] = true
	p.wall[ph] = msOf(wall)
	p.self[ph] = msOf(wall - time.Duration(s.FwdNanos+s.BwdNanos-m.qsimNs))
	p.alloc[ph] = float64(mem.Mallocs - m.mallocs)
	p.ls.span(phaseNames[ph], m.at, at)
}

func (p *probe) tapeNodes(n int) {
	if p != nil {
		p.nodes = n
	}
}

// counters is one reading of every cumulative counter the program exports
// that a step can move.
type counters struct {
	eng  qsim.PassStats
	mem  runtime.MemStats
	par  par.SchedStats
	dist distCounters
}

type distCounters struct {
	batches, shards, bytesOut, bytesIn, redispatched int64
	affRouted, affMissed, latSumNS                   int64
}

func readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.par = par.Stats()
	dist.Collect(func(name string, v int64) {
		switch name {
		case "dist.batches":
			c.dist.batches = v
		case "dist.shards_done":
			c.dist.shards = v
		case "dist.bytes_out":
			c.dist.bytesOut = v
		case "dist.bytes_in":
			c.dist.bytesIn = v
		case "dist.redispatched":
			c.dist.redispatched = v
		case "dist.aff_routed":
			c.dist.affRouted = v
		case "dist.aff_missed":
			c.dist.affMissed = v
		case "dist.lat_sum_ns":
			c.dist.latSumNS = v
		}
	})
	c.eng = qsim.EngineStats()
	return c
}

// benchSpan is one of the benchmark's own spans: setup → reference / model
// / warm-up, and step → the phaseNames calls.
type benchSpan struct {
	name       string
	start, end time.Time
}

// layerStats accumulates a traced run's per-layer samples. In a traced run
// odd steps are traced and even steps run bare, so trace.overhead_ratio
// compares the two halves of the same run.
type layerStats struct {
	dist      bool // the workload runs on EngineDist
	keepSpans bool // retain every span for a Chrome trace file

	samples   map[string][]float64 // per traced step (eval: per call)
	plainMs   []float64
	tracedMs  []float64
	steps     int
	gcCycles  float64
	gcPauseMs float64
	totals    distCounters

	compileMs   []float64 // per setup
	referenceMs []float64 // per setup

	before counters
	spans  []benchSpan
	ring   []trace.SpanRec
}

func newLayerStats(w *workload, keepSpans bool) *layerStats {
	return &layerStats{dist: w.distWorkers > 0, keepSpans: keepSpans, samples: map[string][]float64{}}
}

func (l *layerStats) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layerStats) span(name string, start, end time.Time) {
	if l != nil && l.keepSpans {
		l.spans = append(l.spans, benchSpan{name, start, end})
	}
}

// setupPhase closes one setup phase that began at start.
func (l *layerStats) setupPhase(name string, start time.Time) {
	if l == nil {
		return
	}
	end := time.Now()
	l.span(name, start, end)
	if name == "reference" {
		l.referenceMs = append(l.referenceMs, msOf(end.Sub(start)))
	}
}

// endSetup closes one traced setup: it collects the circuit compile spans
// the setup published and clears the ring for the steps.
func (l *layerStats) endSetup(start time.Time) {
	l.span("setup", start, time.Now())
	var compile time.Duration
	for _, s := range l.drainRing() {
		if s.Kind == trace.KCompile {
			compile += time.Duration(s.End - s.Start)
		}
	}
	l.compileMs = append(l.compileMs, msOf(compile))
}

func (l *layerStats) drainRing() []trace.SpanRec {
	spans := trace.Snapshot()
	trace.Reset()
	if l.keepSpans {
		l.ring = append(l.ring, spans...)
	}
	return spans
}

// beginStep reads the counters and arms span recording for a traced step.
func (l *layerStats) beginStep() *probe {
	trace.Reset()
	l.before = readCounters()
	trace.SetEnabled(true)
	return &probe{ls: l}
}

// endStep folds a traced step into the samples; d is the step's time
// without its evaluation, and its span runs from start to end. It fails when
// the span ring wrapped within the step.
func (l *layerStats) endStep(p *probe, name string, start, end time.Time, d time.Duration) error {
	trace.SetEnabled(false)
	after := readCounters()
	spans := l.drainRing()
	b := l.before
	l.span(name, start, end)
	l.steps++
	l.tracedMs = append(l.tracedMs, msOf(d))

	for ph, names := range phaseMetrics {
		if !p.ran[ph] {
			continue
		}
		for k, v := range []float64{p.wall[ph], p.self[ph], p.alloc[ph]} {
			if names[k] != "" {
				l.add(names[k], v)
			}
		}
	}
	if p.ran[phaseBuild] {
		l.add("ad.tape_nodes", float64(p.nodes))
	}

	fwdNs := after.eng.FwdNanos - b.eng.FwdNanos
	bwdNs := after.eng.BwdNanos - b.eng.BwdNanos
	l.add("qsim.fwd_ms", float64(fwdNs)/1e6)
	l.add("qsim.bwd_ms", float64(bwdNs)/1e6)
	l.add("qsim.fwd_passes", float64(after.eng.FwdPasses-b.eng.FwdPasses))
	l.add("qsim.bwd_passes", float64(after.eng.BwdPasses-b.eng.BwdPasses))
	l.add("par.regions", float64(after.par.Regions-b.par.Regions))
	l.add("par.chunks", float64(after.par.Chunks-b.par.Chunks))
	l.add("par.steals", float64(after.par.Steals-b.par.Steals))
	l.add("go.alloc_mb", float64(after.mem.TotalAlloc-b.mem.TotalAlloc)/(1<<20))
	l.gcCycles += float64(after.mem.NumGC - b.mem.NumGC)
	l.gcPauseMs += float64(after.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6

	dd := distCounters{
		batches:      after.dist.batches - b.dist.batches,
		shards:       after.dist.shards - b.dist.shards,
		bytesOut:     after.dist.bytesOut - b.dist.bytesOut,
		bytesIn:      after.dist.bytesIn - b.dist.bytesIn,
		redispatched: after.dist.redispatched - b.dist.redispatched,
		affRouted:    after.dist.affRouted - b.dist.affRouted,
		affMissed:    after.dist.affMissed - b.dist.affMissed,
		latSumNS:     after.dist.latSumNS - b.dist.latSumNS,
	}
	l.add("dist.batches", float64(dd.batches))
	l.add("dist.shards", float64(dd.shards))
	l.add("dist.bytes_out", float64(dd.bytesOut))
	l.add("dist.bytes_in", float64(dd.bytesIn))
	l.totals.shards += dd.shards
	l.totals.redispatched += dd.redispatched
	l.totals.affRouted += dd.affRouted
	l.totals.affMissed += dd.affMissed
	l.totals.latSumNS += dd.latSumNS

	busy, covered := shardBusy(spans)
	var wait time.Duration
	if l.dist {
		wait = max(time.Duration(fwdNs+bwdNs)-covered, 0)
	}
	l.add("dist.worker_busy_ms", msOf(busy))
	l.add("dist.wait_ms", msOf(wait))

	if len(spans) >= traceRingSlots {
		return errRingWrapped
	}
	return nil
}

// shardBusy sums the worker shard spans (busy) and measures the union of
// their intervals (covered: time at least one worker was executing a shard).
func shardBusy(spans []trace.SpanRec) (busy, covered time.Duration) {
	var iv [][2]int64
	for _, s := range spans {
		if s.Kind == trace.KShard && s.Worker != 0 {
			busy += time.Duration(s.End - s.Start)
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var end int64
	for _, x := range iv {
		if lo := max(x[0], end); x[1] > lo {
			covered += time.Duration(x[1] - lo)
		}
		end = max(end, x[1])
	}
	return busy, covered
}

// metrics reduces the samples to the per-layer registry.
func (l *layerStats) metrics(evalCalls int, workerRSS float64) map[string]float64 {
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = med(l.samples[def.name])
	}
	steps := float64(max(l.steps, 1))
	m["core.eval_calls"] = float64(evalCalls)
	m["qsim.compile_ms"] = med(l.compileMs)
	m["refsol.reference_ms"] = med(l.referenceMs)
	m["go.gc_cycles"] = l.gcCycles / steps
	m["go.gc_pause_ms"] = l.gcPauseMs / steps
	m["dist.redispatched"] = float64(l.totals.redispatched)
	if aff := l.totals.affRouted + l.totals.affMissed; aff > 0 {
		m["dist.affinity_hit_ratio"] = float64(l.totals.affRouted) / float64(aff)
	}
	if l.totals.shards > 0 {
		m["dist.shard_rtt_ms"] = float64(l.totals.latSumNS) / float64(l.totals.shards) / 1e6
	}
	m["dist.worker_peak_rss_mb"] = workerRSS

	traced := med(l.tracedMs)
	if plain := med(l.plainMs); plain > 0 {
		m["trace.overhead_ratio"] = traced / plain
	}
	// Coverage sums the phases that ran in every traced step; a training
	// step's time excludes its evaluation, an inference step is all
	// evaluation.
	if traced > 0 {
		var covered float64
		for _, names := range phaseMetrics {
			if len(l.samples[names[0]]) == l.steps {
				covered += m[names[0]]
			}
		}
		m["bench.layer_coverage"] = covered / traced
	}
	return m
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
