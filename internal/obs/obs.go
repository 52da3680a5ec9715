// Package obs is the live observability plane: an HTTP debug server the
// long-running commands expose behind their -debug-addr flag, serving
//
//   - /metrics  — Prometheus text exposition of every ftdc collector,
//     including the dist per-shard latency log2 buckets re-shaped into a
//     cumulative Prometheus histogram
//   - /trace    — the span recorder's current window as Chrome trace-event
//     JSON (loadable in Perfetto / chrome://tracing), worker spans stitched
//     under their coordinator parents
//   - /ftdc     — the live flight-data capture, downloadable mid-run in the
//     same format DumpFile writes
//   - /healthz  — per-worker liveness and straggler flags as JSON
//   - /debug/pprof/* — the standard Go profiler endpoints
//
// /metrics and /healthz render one live scrape through ftdc.Scrape, so they
// read the dist series names, the latency histogram and the straggler rule
// exactly as torq-ftdc reads a capture. RegisterFlags and Flags.Start hold
// the start-up the commands share: the -ftdc-dump, -ftdc-interval and
// -debug-addr flags, the recorder, the dump on SIGUSR1 and at exit, and
// this server.
//
// Everything here is a cold read path: handlers snapshot lock-free counters
// and the span ring, never touching coordinator or engine state, so scraping
// a live training run cannot perturb it. The package registers nothing on
// http.DefaultServeMux — each Server owns a private mux, so linking obs into
// a binary that serves its own HTTP cannot leak debug endpoints.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ftdc"
	"repro/internal/trace"
)

// Options configures a debug server.
type Options struct {
	// Recorder backs /ftdc (live capture download) when non-nil; /ftdc
	// answers 503 otherwise.
	Recorder *ftdc.Recorder
	// Sources are the collectors /metrics and /healthz scrape. Nil means
	// ftdc.Standard, the collectors a recorder samples.
	Sources []ftdc.Collector
}

// Server is a running debug HTTP server.
type Server struct {
	// Addr is the bound listen address (useful with ":0" in tests).
	Addr string
	ln   net.Listener
}

// Start listens on addr and serves the debug plane until Close. The listener
// is bound synchronously — a bad address fails here, not in the background.
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln}
	go http.Serve(ln, Handler(o)) //nolint:errcheck // closes with the listener
	return s, nil
}

// Close stops the server's listener.
func (s *Server) Close() error { return s.ln.Close() }

// Handler builds the debug mux — exposed separately so tests (or an embedder
// with its own server) can mount the plane without a listener.
func Handler(o Options) http.Handler {
	if o.Sources == nil {
		o.Sources = ftdc.Standard()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, ftdc.Scrape(o.Sources))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeChromeTrace(w, trace.Snapshot())
	})
	mux.HandleFunc("/ftdc", func(w http.ResponseWriter, r *http.Request) {
		if o.Recorder == nil {
			http.Error(w, "no ftdc recorder running (start with -ftdc-dump or -debug-addr)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="live.ftdc"`)
		o.Recorder.WriteTo(w) //nolint:errcheck // client disconnects are fine
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var samples uint64
		if o.Recorder != nil {
			samples = o.Recorder.Samples()
		}
		writeJSON(w, healthReply{
			Tracing:      trace.Enabled(),
			FTDCSamples:  samples,
			Workers:      ftdc.Scrape(o.Sources).Workers,
			GeneratedUTC: time.Now().UTC().Format(time.RFC3339Nano),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type healthReply struct {
	Tracing      bool                 `json:"tracing"`
	FTDCSamples  uint64               `json:"ftdc_samples"`
	Workers      []ftdc.WorkerSummary `json:"workers"`
	GeneratedUTC string               `json:"generated_utc"`
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

// writeMetrics renders one live scrape's summary as Prometheus text
// exposition:
//
//   - dots become underscores under a torq_ prefix
//     (dist.shards_done → torq_dist_shards_done)
//   - per-worker series fold into one family per field with a worker
//     label (worker 3's shards → torq_dist_worker_shards{worker="3"})
//   - the latency histogram becomes torq_dist_shard_latency_seconds
//
// Sorting the rendered lines keeps each family's lines together, as the
// exposition format requires.
func writeMetrics(w http.ResponseWriter, sum *ftdc.Summary) {
	var lines []string
	for _, m := range sum.Metrics {
		switch m.Kind {
		case ftdc.Plain:
			lines = append(lines, fmt.Sprintf("torq_%s %d\n", flatten(m.Name), m.Last))
		case ftdc.WorkerField:
			lines = append(lines, fmt.Sprintf("torq_dist_worker_%s{worker=\"%d\"} %d\n", flatten(m.Field), m.Index, m.Last))
		}
	}
	sort.Strings(lines)
	fmt.Fprint(w, strings.Join(lines, ""))
	if sum.Latency != nil {
		writeLatencyHistogram(w, sum.Latency)
	}
}

// writeLatencyHistogram converts the log2 per-shard latency buckets into the
// cumulative form Prometheus expects: bucket k's upper bound is 2^k µs,
// expressed in seconds. The open top bucket counts only toward +Inf.
func writeLatencyHistogram(w http.ResponseWriter, h *ftdc.Histogram) {
	max := 0
	for b, v := range h.Counts {
		if v != 0 {
			max = b
		}
	}
	fmt.Fprintf(w, "# TYPE torq_dist_shard_latency_seconds histogram\n")
	var cum int64
	for b := 0; b <= max; b++ {
		cum += h.Counts[b]
		if _, hi := ftdc.BucketBounds(b); hi > 0 {
			le := strconv.FormatFloat(float64(hi)/1e6, 'g', -1, 64)
			fmt.Fprintf(w, "torq_dist_shard_latency_seconds_bucket{le=%q} %d\n", le, cum)
		}
	}
	fmt.Fprintf(w, "torq_dist_shard_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "torq_dist_shard_latency_seconds_sum %s\n",
		strconv.FormatFloat(float64(h.SumNS)/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "torq_dist_shard_latency_seconds_count %d\n", cum)
}

func flatten(name string) string { return strings.ReplaceAll(name, ".", "_") }

// chromeEvent is one Chrome trace-event record ("X" complete events for
// spans, "M" metadata events naming the process rows).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChromeTrace renders the span window as Chrome trace-event JSON. Each
// process row is one worker (pid 0 = the coordinator/local process); within
// a row, shard spans land on a tid per shard index so concurrent shards
// stack visibly, and everything else shares tid 0. Span and parent ids ride
// in args, which is how the stitched tree stays navigable in Perfetto.
func writeChromeTrace(w http.ResponseWriter, spans []trace.SpanRec) {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	procs := map[int32]bool{}
	for _, s := range spans {
		tid := int32(0)
		if s.Kind == trace.KShard && s.Shard >= 0 {
			tid = s.Shard + 1
		}
		args := map[string]any{
			"span":   fmt.Sprintf("%016x", s.ID),
			"parent": fmt.Sprintf("%016x", s.Parent),
		}
		if s.Shard >= 0 {
			args["shard"] = s.Shard
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Kind.String(),
			Cat:  "torq",
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  s.Worker,
			TID:  tid,
			Args: args,
		})
		procs[s.Worker] = true
	}
	var pids []int32
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		name := "coordinator"
		if pid != 0 {
			name = "worker " + strconv.Itoa(int(pid))
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	writeJSON(w, out)
}
