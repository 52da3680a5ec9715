package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/trace"
)

// chromeEvent is one Chrome trace-event record: "X" complete events for
// spans, "M" metadata naming the process rows.
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

// writeChromeTrace writes the benchmark's spans and the program's span-ring
// spans as one Chrome trace-event file. The benchmark's spans share the
// coordinator row (pid 0, tid 0) with the program's pass spans, so Perfetto
// nests each qsim pass under the build, backward or eval call it ran in;
// worker shard spans get one row per worker and one track per shard, as the
// program's own /trace endpoint lays them out.
func writeChromeTrace(path string, bench []benchSpan, ring []trace.SpanRec) error {
	events := make([]chromeEvent, 0, len(bench)+len(ring)+4)
	for _, s := range bench {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start.UnixNano()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	pids := []int32{0}
	for _, s := range ring {
		tid := int32(0)
		if s.Kind == trace.KShard && s.Shard >= 0 {
			tid = s.Shard + 1
		}
		events = append(events, chromeEvent{
			Name: s.Kind.String(), Cat: "torq", Ph: "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  s.Worker,
			TID:  tid,
			Args: map[string]any{"span": fmt.Sprintf("%016x", s.ID), "parent": fmt.Sprintf("%016x", s.Parent)},
		})
		pids = append(pids, s.Worker)
	}
	slices.Sort(pids)
	for _, pid := range slices.Compact(pids) {
		name := "coordinator"
		if pid != 0 {
			name = fmt.Sprintf("worker %d", pid)
		}
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
