package dist_test

// The flight-data-recorder acceptance scenarios, end to end against real
// subprocess workers: a capture taken across a genuine EngineDist training
// run must decode with live steal/latency/affinity series, and a
// deliberately stalled worker must come out of Summarize flagged as a
// straggler. This file lives in dist_test so it can import ftdc (which
// imports dist — an import cycle for an internal test package).

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/ftdc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qsim"
)

// TestFTDCCapturesDistTrainingEpoch records a capture around a real dist
// training run (live recorder, subprocess workers, default transport) and
// asserts the decoded dump carries the series the tentpole promises:
// nonzero steals, per-shard latency, affinity hits, and per-worker service
// records.
func TestFTDCCapturesDistTrainingEpoch(t *testing.T) {
	defer dist.Shutdown()
	defer par.SetMaxWorkers(0)
	dist.ResetTelemetry()
	par.ResetStats()
	qsim.ResetEngineStats()

	rec := ftdc.New(ftdc.Options{Interval: 2 * time.Millisecond}, ftdc.Standard()...)
	rec.Start()

	dist.Configure(dist.Options{Workers: 2})
	trainEpochs(t, qsim.EngineDist, 2)

	// The coordinator-side scheduler may legitimately see zero steals on a
	// single-core host (the dist compute happens in the workers), so force
	// a stealing region the way the par suite does: a stalled owner whose
	// chunks the other workers must take.
	par.SetMaxWorkers(4)
	par.RunChunk(16, 1, func(_, lo, _ int) {
		if lo == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	})

	rec.Stop()
	path := filepath.Join(t.TempDir(), "capture.ftdc")
	if err := rec.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	samples, err := ftdc.ReadFile(path)
	if err != nil {
		t.Fatalf("decoding the capture: %v", err)
	}
	if len(samples) < 2 {
		t.Fatalf("capture holds %d samples, want a real series", len(samples))
	}
	last := samples[len(samples)-1]
	mustPositive := func(name string) int64 {
		t.Helper()
		v, ok := last.Value(name)
		if !ok {
			t.Fatalf("capture has no %s series", name)
		}
		if v <= 0 {
			t.Fatalf("%s = %d, want > 0", name, v)
		}
		return v
	}
	mustPositive("par.steals")
	mustPositive("dist.shards_done")
	mustPositive("dist.bwd_passes")
	mustPositive("dist.aff_routed") // paired backward shards rode cached forward states
	mustPositive("qsim.bwd_passes")
	mustPositive("qsim.bwd_ns")

	// Per-shard latency: the histogram and at least one per-worker series
	// must have fired.
	sum := ftdc.Summarize(samples)
	var histN int64
	for _, m := range sum.Metrics {
		if len(m.Name) > 10 && m.Name[:10] == "dist.lat_b" {
			histN += m.Last
		}
	}
	if histN == 0 {
		t.Fatal("per-shard latency histogram is empty")
	}
	if len(sum.Workers) == 0 {
		t.Fatal("capture has no per-worker service series")
	}
	for _, w := range sum.Workers {
		if w.Shards > 0 && w.MeanShardLat <= 0 {
			t.Errorf("worker %d served %d shards with no recorded latency", w.ID, w.Shards)
		}
	}
}

// TestDistStragglerFlaggedInDump arms one of two workers with a 200ms
// per-shard stall and checks the capture's summary, and the live /healthz,
// flag exactly that worker as the latency outlier — while the results stay
// bit-identical to an undisturbed run (a straggler is slow, not wrong).
func TestDistStragglerFlaggedInDump(t *testing.T) {
	defer dist.Shutdown()
	dist.ResetTelemetry()
	rng := rand.New(rand.NewSource(1234))
	const n, nq = 96, 7
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	gz := randRows(rng, n*nq)

	dist.Configure(dist.Options{Workers: 2})
	want := runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)

	// Fresh pool with the first-spawned worker stalled; the spawn-env hook
	// arms exactly one worker, mirroring the kill-recovery tests.
	dist.Configure(dist.Options{Workers: 2})
	dist.SetTestSpawnEnv(dist.StallEnv + "=200")
	dist.ResetTelemetry()

	rec := ftdc.New(ftdc.Options{})
	rec.AddSource(dist.Collect)
	rec.SampleNow()
	got := runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)
	rec.SampleNow()
	comparePass(t, "stalled-worker pass", want, got)

	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ftdc.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := ftdc.Summarize(samples)
	if len(sum.Workers) != 2 {
		t.Fatalf("summary shows %d workers, want 2 (%+v)", len(sum.Workers), sum.Workers)
	}
	slow, fast := sum.Workers[0], sum.Workers[1]
	if fast.MeanShardLat > slow.MeanShardLat {
		slow, fast = fast, slow
	}
	if !slow.Straggler {
		t.Errorf("stalled worker %d (mean %v vs fleet %v) not flagged as straggler",
			slow.ID, slow.MeanShardLat, fast.MeanShardLat)
	}
	if fast.Straggler {
		t.Errorf("healthy worker %d (mean %v) wrongly flagged", fast.ID, fast.MeanShardLat)
	}

	// The live /healthz reads the same series through the same rule, so it
	// must flag the same worker while both are still alive.
	rr := httptest.NewRecorder()
	obs.Handler(obs.Options{Sources: []ftdc.Collector{dist.Collect}}).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Workers []ftdc.WorkerSummary `json:"workers"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, rr.Body)
	}
	if len(health.Workers) != 2 {
		t.Fatalf("/healthz shows %d workers, want 2\n%s", len(health.Workers), rr.Body)
	}
	for _, w := range health.Workers {
		if !w.Alive {
			t.Errorf("/healthz reports worker %d dead\n%s", w.ID, rr.Body)
		}
		if want := w.ID == slow.ID; w.Straggler != want {
			t.Errorf("/healthz worker %d straggler=%v, the capture says %v\n%s", w.ID, w.Straggler, want, rr.Body)
		}
	}
}
