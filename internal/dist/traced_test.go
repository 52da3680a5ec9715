package dist_test

// Traced parity: the ISSUE acceptance that span recording is bit-invisible
// to the numerics. The full parity matrix (worker counts × ansatze ×
// transport configs) and the kill-recovery path re-run with tracing forced
// on, compared bit for bit against untraced in-process baselines — any
// conditional the trace fields smuggle into the numeric path fails here.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/qsim"
	"repro/internal/trace"
)

// TestDistTracedBitIdentical re-runs the bit-identity acceptance matrix of
// TestDistBitIdenticalToSharded with span recording enabled on the
// coordinator (which forces it on in every worker through the pass frame's
// trace context). The baselines are computed UNtraced, so the comparison
// also proves tracing does not perturb the in-process engines.
func TestDistTracedBitIdentical(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(4242)) // same seed/shape as the untraced matrix
	const n, nq = 48, 4

	type workload struct {
		circ *qsim.Circuit
		ctx  string
		in   []([]float64) // angles, theta, gz
		tans [][]float64
		gzt  [][]float64
		want passResult
	}
	var loads []workload
	for _, a := range qsim.AllAnsatze {
		for _, reup := range []bool{false, true} {
			circ := a.Build(nq, 2)
			if reup {
				circ = circ.WithReupload()
			}
			angles := randRows(rng, n*nq)
			theta := randRows(rng, circ.NumParams)
			tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			gz := randRows(rng, n*nq)
			gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			loads = append(loads, workload{
				circ: circ,
				ctx:  circ.Name,
				in:   [][]float64{angles, theta, gz},
				tans: tans, gzt: gztans,
				want: runPass(qsim.EngineSharded, circ, n, angles, tans, theta, gz, gztans),
			})
		}
	}

	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	for _, workers := range []int{1, 2, 4} {
		dist.Configure(dist.Options{Workers: workers})
		for _, w := range loads {
			ctx := fmt.Sprintf("traced/%s/workers=%d", w.ctx, workers)
			checkPairedAndUnpaired(t, ctx, w.circ, n, w.in[0], w.tans, w.in[1], w.in[2], w.gzt, w.want)
		}
	}
}

// TestDistTracedKillRecovery re-runs the worker-death re-dispatch check with
// tracing on: a sabotaged worker dies mid-pass, the survivor finishes, and
// the results stay bit-identical to an undisturbed untraced run.
func TestDistTracedKillRecovery(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(555))
	const n, nq = 96, 7
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
	gz := randRows(rng, n*nq)
	gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}

	dist.Configure(dist.Options{Workers: 2})
	want := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)

	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	dist.Configure(dist.Options{Workers: 2})
	dist.SetTestSpawnEnv(dist.FailAfterEnv + "=1")
	got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	comparePass(t, "traced worker death", want, got)
	if live := dist.LiveWorkersForTest(); live != 2 {
		t.Fatalf("expected the pool healed to 2 live workers, have %d", live)
	}
	got = runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	comparePass(t, "traced after respawn", want, got)
}

// TestDistTracedSpanTree checks the observability payload itself: after a
// traced dist pass, the coordinator's span ring must hold the stitched tree —
// pass roots, compile, per-worker broadcasts, batch round trips, worker-side
// KShard spans (stamped with a coordinator-side worker id and parented under
// a coordinator batch or pass span), and the ordered merges.
func TestDistTracedSpanTree(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(31))
	const n, nq = 48, 4
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	gz := randRows(rng, n*nq)

	dist.Configure(dist.Options{Workers: 2})
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Reset()
	runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)

	spans := trace.Snapshot()
	byID := make(map[uint64]trace.SpanRec, len(spans))
	count := map[trace.Kind]int{}
	for _, s := range spans {
		byID[s.ID] = s
		count[s.Kind]++
		if s.Start == 0 || s.End < s.Start {
			t.Errorf("span %+v has a broken time range", s)
		}
	}
	for _, k := range []trace.Kind{trace.KCompile, trace.KForward, trace.KBackward, trace.KBroadcast, trace.KBatch, trace.KShard, trace.KMerge} {
		if count[k] == 0 {
			t.Errorf("no %v span recorded (kinds seen: %v)", k, count)
		}
	}
	if count[trace.KShard] < 2 {
		t.Errorf("expected several worker KShard spans, got %d", count[trace.KShard])
	}
	for _, s := range spans {
		if s.Kind != trace.KShard {
			continue
		}
		if s.Worker <= 0 {
			t.Errorf("KShard span %x not stamped with a worker id: %+v", s.ID, s)
		}
		if s.Shard < 0 {
			t.Errorf("KShard span %x has no shard index", s.ID)
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("KShard span %x parent %x not in the ring — worker spans not stitched", s.ID, s.Parent)
			continue
		}
		if p.Kind != trace.KBatch && p.Kind != trace.KForward && p.Kind != trace.KBackward {
			t.Errorf("KShard span %x parented under a %v span, want batch or pass root", s.ID, p.Kind)
		}
	}
	// Batch and broadcast spans must hang off a pass root.
	for _, s := range spans {
		if s.Kind != trace.KBatch && s.Kind != trace.KBroadcast {
			continue
		}
		if p, ok := byID[s.Parent]; !ok || (p.Kind != trace.KForward && p.Kind != trace.KBackward) {
			t.Errorf("%v span %x not parented under a pass root (parent %x, found %v)", s.Kind, s.ID, s.Parent, ok)
		}
	}
}

// TestDistUntracedCarriesNoSpans pins the wire cost of the always-present
// span section at zero when tracing is off: a pass run with the gate
// disarmed must record nothing and ship no span records.
func TestDistUntracedCarriesNoSpans(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(32))
	const n, nq = 33, 4
	circ := qsim.BasicEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	gz := randRows(rng, n*nq)

	trace.SetEnabled(false)
	trace.Reset()
	dist.Configure(dist.Options{Workers: 2})
	runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)
	if spans := trace.Snapshot(); len(spans) != 0 {
		t.Fatalf("untraced pass recorded %d spans, want 0: %+v", len(spans), spans[0])
	}
}
