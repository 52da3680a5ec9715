package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// Test-only workloads: one tiny real training run, one that panics in set-up,
// and one whose oracle fails. TestMain registers them before dispatching, so
// the re-executed children (this test binary again) know them too.
var testWorkloads = []*workload{
	{
		name:    "tiny-ok",
		model:   func() core.ModelConfig { return core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos) },
		problem: maxwell.VacuumCase, grid: 3, epochs: 100, target: 10,
	},
	{
		name:    "tiny-panic",
		model:   func() core.ModelConfig { panic("injected set-up failure") },
		problem: maxwell.VacuumCase, grid: 3, epochs: 100, target: 10,
	},
	{
		name: "tiny-bad-oracle",
		model: func() core.ModelConfig {
			return core.SmokeModel(core.ClassicalReduced, qsim.StronglyEntangling, qsim.ScaleAcos)
		},
		problem: maxwell.VacuumCase, grid: 3, epochs: 100, target: 10,
		oracle: func(*instance) error { return errors.New("injected oracle failure") },
	},
}

func TestMain(m *testing.M) {
	workloads = append(workloads, testWorkloads...)
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], time.Now(), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestFailedWorkloadIsIsolated: a workload that panics or fails a check is
// reported as failed, the workloads after it still run, and the session
// exits non-zero.
func TestFailedWorkloadIsIsolated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "tiny-panic,tiny-bad-oracle,tiny-ok", "-seconds", "0", "-json", path}, time.Now(), &stdout, &stderr)
	if code == 0 {
		t.Fatalf("session with failing workloads exited 0\n%s", stdout.String())
	}
	s, err := readSession(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]runRecord{}
	for _, r := range s.Runs {
		got[r.Workload] = r
	}
	for name, wantErr := range map[string]string{"tiny-panic": "no result", "tiny-bad-oracle": "injected oracle failure"} { //torq:allow maprange -- independent checks
		r := got[name]
		if r.Correct || r.Failed == 0 || !strings.Contains(strings.Join(r.Errors, "\n"), wantErr) {
			t.Errorf("%s: correct=%v failed=%d errors=%q, want a failure mentioning %q", name, r.Correct, r.Failed, r.Errors, wantErr)
		}
	}
	if r := got["tiny-ok"]; !r.Correct || r.Failed != 0 || r.Steps < 100 {
		t.Errorf("tiny-ok after two failures: correct=%v failed=%d steps=%d errors=%q", r.Correct, r.Failed, r.Steps, r.Errors)
	}
	var line struct{ Correct bool }
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &line); err != nil || line.Correct {
		t.Errorf("final line %q: want correct=false (%v)", lastLine(stdout.Bytes()), err)
	}
}

// TestResultLineContract checks the final line of a one-workload run: exactly
// the keys correct/attempted/failed/metrics, and every end-to-end metric
// (untraced) or per-layer metric (traced) by name with its unit.
func TestResultLineContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--workload", "tiny-ok", "--seed", "3", "--seconds", "0", "--trace", trace}, time.Now(), &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &line); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("trace %s: final line keys %v", trace, keys)
		}
		var body struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &body); err != nil {
			t.Fatal(err)
		}
		want := metricsFor(trace == "1")
		if !body.Correct || body.Attempted < 100 || body.Failed != 0 || len(body.Metrics) != len(want) {
			t.Fatalf("trace %s: %+v", trace, body)
		}
		for _, m := range want {
			got, ok := body.Metrics[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.name, got, m.unit)
			}
			if m.bound > 0 && !(got.Value > 0) {
				t.Errorf("trace %s: end-to-end metric %s = %v, want > 0", trace, m.name, got.Value)
			}
		}
	}
}
