package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/ftdc"
	"repro/internal/trace"
)

// fakeSource emits a fixed series set shaped like the real collectors:
// plain counters, per-worker series, and the log2 latency buckets.
func fakeSource(emit func(name string, value int64)) {
	emit("par.steals", 11)
	emit("dist.passes", 42)
	emit("dist.w2.shards", 7)
	emit("dist.w1.shards", 9)
	emit("dist.w1.lat_ns", 1_000_000)
	emit("dist.w1.batches", 3)
	// Worker 2 has no liveness series, so it reads as not alive.
	emit("dist.w1.alive", 1)
	emit("dist.lat_b00", 3) // < 1µs
	emit("dist.lat_b03", 5) // [4µs, 8µs)
	emit("dist.lat_b27", 2) // ≥ 2^26µs: the open top bucket
	emit("dist.lat_sum_ns", 45_000)
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestMetricsExposition(t *testing.T) {
	h := Handler(Options{Sources: []ftdc.Collector{fakeSource}})
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	wants := []string{
		"torq_par_steals 11\n",
		"torq_dist_passes 42\n",
		`torq_dist_worker_shards{worker="1"} 9` + "\n",
		`torq_dist_worker_shards{worker="2"} 7` + "\n",
		`torq_dist_worker_lat_ns{worker="1"} 1000000` + "\n",
		"# TYPE torq_dist_shard_latency_seconds histogram\n",
		`torq_dist_shard_latency_seconds_bucket{le="1e-06"} 3` + "\n",
		`torq_dist_shard_latency_seconds_bucket{le="8e-06"} 8` + "\n",
		`torq_dist_shard_latency_seconds_bucket{le="+Inf"} 10` + "\n",
		"torq_dist_shard_latency_seconds_sum 4.5e-05\n",
		"torq_dist_shard_latency_seconds_count 10\n",
		`torq_dist_worker_alive{worker="1"} 1` + "\n",
		`torq_dist_shard_latency_seconds_bucket{le="67.108864"} 8` + "\n",
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// Worker series of one family must be grouped and sorted by label.
	if i, j := strings.Index(body, `worker="1"} 9`), strings.Index(body, `worker="2"}`); i < 0 || j < 0 || i > j {
		t.Errorf("worker series unsorted or missing (positions %d, %d)\n%s", i, j, body)
	}
	// The top bucket has no finite upper bound: it counts only toward +Inf.
	if strings.Contains(body, `le="134.217728"`) {
		t.Errorf("open top bucket labelled with a finite bound\n%s", body)
	}
	// Raw bucket/sum series must not leak beside the histogram.
	for _, leak := range []string{"torq_dist_lat_b", "torq_dist_lat_sum_ns"} {
		if strings.Contains(body, leak) {
			t.Errorf("raw series %q leaked into exposition\n%s", leak, body)
		}
	}
}

// TestMetricsEmptyBuckets checks a run with no dist activity (Collect still
// emits the all-zero bucket series) produces an all-zero histogram rather
// than dropping the family or omitting the +Inf bucket.
func TestMetricsEmptyBuckets(t *testing.T) {
	empty := func(emit func(string, int64)) {
		emit("dist.lat_b00", 0)
		emit("dist.lat_sum_ns", 0)
	}
	_, body := get(t, Handler(Options{Sources: []ftdc.Collector{empty}}), "/metrics")
	for _, want := range []string{
		`torq_dist_shard_latency_seconds_bucket{le="+Inf"} 0` + "\n",
		"torq_dist_shard_latency_seconds_count 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("empty histogram missing %q\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	trace.Reset()
	defer trace.Reset()

	root := trace.BeginPass(trace.KForward)
	child := trace.Begin(trace.KBatch, root.ID)
	child.Worker = 3
	child.End()
	root.End()
	// A worker-origin shard span arriving through Ingest.
	trace.Ingest(trace.SpanRec{ID: 99, Parent: child.ID, Kind: trace.KShard,
		Worker: 3, Shard: 5, Start: 1000, End: 2000})

	code, body := get(t, Handler(Options{}), "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int32          `json:"pid"`
			TID  int32          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/trace is not JSON: %v\n%s", err, body)
	}
	kinds := map[string]int{}
	var sawShard, sawWorkerProc bool
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			kinds[e.Name]++
			if e.Name == "shard" {
				sawShard = true
				if e.PID != 3 {
					t.Errorf("shard event pid %d, want worker 3", e.PID)
				}
				if e.TID != 6 { // shard 5 → tid 6 (shard+1)
					t.Errorf("shard event tid %d, want 6", e.TID)
				}
			}
		case "M":
			if name, _ := e.Args["name"].(string); name == "worker 3" {
				sawWorkerProc = true
			}
		}
	}
	if kinds["forward"] != 1 || kinds["batch"] != 1 || !sawShard {
		t.Errorf("trace events incomplete: %v", kinds)
	}
	if !sawWorkerProc {
		t.Error("no process_name metadata for worker 3")
	}
}

func TestFTDCEndpoint(t *testing.T) {
	// Without a recorder the endpoint must refuse, not panic.
	if code, _ := get(t, Handler(Options{}), "/ftdc"); code != http.StatusServiceUnavailable {
		t.Fatalf("/ftdc without recorder: status %d, want 503", code)
	}

	rec := ftdc.New(ftdc.Options{})
	rec.AddSource(fakeSource)
	for i := 0; i < 5; i++ {
		rec.SampleNow()
	}
	code, body := get(t, Handler(Options{Recorder: rec}), "/ftdc")
	if code != http.StatusOK {
		t.Fatalf("/ftdc status %d", code)
	}
	samples, err := ftdc.Decode([]byte(body))
	if err != nil {
		t.Fatalf("live capture does not decode: %v", err)
	}
	if len(samples) != 5 {
		t.Fatalf("live capture holds %d samples, want 5", len(samples))
	}
	if v, ok := samples[4].Value("dist.passes"); !ok || v != 42 {
		t.Fatalf("sample value dist.passes = %d, %v", v, ok)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	rec := ftdc.New(ftdc.Options{})
	rec.AddSource(fakeSource)
	rec.SampleNow()
	code, body := get(t, Handler(Options{Recorder: rec, Sources: []ftdc.Collector{fakeSource}}), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h struct {
		Tracing     bool            `json:"tracing"`
		FTDCSamples uint64          `json:"ftdc_samples"`
		Workers     json.RawMessage `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if !h.Tracing {
		t.Error("healthz does not report tracing enabled")
	}
	if h.FTDCSamples != 1 {
		t.Errorf("healthz reports %d ftdc samples, want 1", h.FTDCSamples)
	}
	var workers []ftdc.WorkerSummary
	if err := json.Unmarshal(h.Workers, &workers); err != nil {
		t.Fatalf("/healthz workers: %v\n%s", err, h.Workers)
	}
	want := []ftdc.WorkerSummary{
		{ID: 1, Alive: true, Shards: 9, Batches: 3, MeanShardLat: 1_000_000 / 9},
		{ID: 2, Shards: 7},
	}
	if !slices.Equal(workers, want) {
		t.Errorf("/healthz workers %+v, want %+v", workers, want)
	}
	for _, field := range []string{`"id"`, `"alive"`, `"shards"`, `"batches"`, `"mean_shard_lat_ns"`, `"straggler"`} {
		if !strings.Contains(string(h.Workers), field) {
			t.Errorf("/healthz workers lack %s\n%s", field, h.Workers)
		}
	}
}

// TestStartServes boots a real listener on an ephemeral port and exercises
// the plane over actual HTTP, including a pprof endpoint.
func TestStartServes(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{"/metrics", "/trace", "/healthz", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d\n%s", path, resp.StatusCode, b)
		}
	}
	if _, err := Start(s.Addr, Options{}); err == nil {
		t.Error("second Start on a bound address did not fail")
	}
}
