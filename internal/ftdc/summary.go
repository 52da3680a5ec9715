package ftdc

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
)

// SeriesKind is the shape of a series name. Beside Plain counters,
// dist.Collect writes WorkerField series (dist.w<id>.<field>), the
// LatencyBucket histogram (dist.lat_bNN) and its exact LatencySum
// (dist.lat_sum_ns). parseSeries is the one place that reads these names.
type SeriesKind uint8

const (
	Plain SeriesKind = iota
	WorkerField
	LatencyBucket
	LatencySum
)

// Series is a series name read by its shape.
type Series struct {
	Kind  SeriesKind
	Index int    // worker id (WorkerField) or bucket number (LatencyBucket)
	Field string // WorkerField: the part after "dist.w<id>."
}

func parseSeries(name string) Series {
	if name == "dist.lat_sum_ns" {
		return Series{Kind: LatencySum}
	}
	if rest, ok := strings.CutPrefix(name, "dist.lat_b"); ok {
		if b, err := strconv.Atoi(rest); err == nil && b >= 0 && b < dist.LatencyBuckets {
			return Series{Kind: LatencyBucket, Index: b}
		}
	}
	if rest, ok := strings.CutPrefix(name, "dist.w"); ok {
		if id, field, ok := strings.Cut(rest, "."); ok && field != "" {
			if n, err := strconv.Atoi(id); err == nil && n > 0 {
				return Series{Kind: WorkerField, Index: n, Field: field}
			}
		}
	}
	return Series{}
}

// MetricSummary condenses one metric's trajectory across a capture. Most
// series are monotonic counters, so Delta = Last−First is the activity the
// capture window saw. torq-ftdc -json marshals it as is.
type MetricSummary struct {
	Name   string `json:"name"`
	Series `json:"-"`
	First  int64 `json:"first"`
	Last   int64 `json:"last"`
	Min    int64 `json:"min"`
	Max    int64 `json:"max"`
	Delta  int64 `json:"delta"`
}

// WorkerSummary condenses one dist worker's service record, derived from
// its dist.w<id>.* series. /healthz and torq-ftdc -json marshal it as is.
type WorkerSummary struct {
	ID           int           `json:"id"`
	Alive        bool          `json:"alive"`
	Shards       int64         `json:"shards"`
	Batches      int64         `json:"batches"`
	MeanShardLat time.Duration `json:"mean_shard_lat_ns"` // batch round-trip time attributed per shard
	Straggler    bool          `json:"straggler"`
}

// Histogram is dist's per-shard latency histogram at the last sample.
type Histogram struct {
	Counts [dist.LatencyBuckets]int64
	SumNS  int64
}

// BucketBounds returns bucket k's latency range [lo, hi) in microseconds.
// The top bucket has no upper bound; hi is 0 for it.
func BucketBounds(k int) (lo, hi int64) {
	if k > 0 {
		lo = 1 << (k - 1)
	}
	if k < dist.LatencyBuckets-1 {
		hi = 1 << k
	}
	return lo, hi
}

// Summary is the digest cmd/torq-ftdc prints, the debug plane renders, and
// the straggler tests assert against.
type Summary struct {
	Start, End time.Time
	Samples    int
	Metrics    []MetricSummary // every series, sorted by name; never nil
	Workers    []WorkerSummary // sorted by id; never nil
	Latency    *Histogram      // nil when no bucket series was sampled
}

// stragglerFactor flags a worker whose mean per-shard latency exceeds this
// multiple of the fleet's (lower-)median; stragglerFloor suppresses flags
// when even the outlier is fast in absolute terms.
const (
	stragglerFactor = 3
	stragglerFloor  = 2 * time.Millisecond
)

// Summarize digests decoded samples: per-metric first/last/min/max, the
// per-worker service summary with latency-outlier straggler flags, and the
// latency histogram. A worker is listed once any of its series exists.
// Workers that served shards are compared on mean per-shard latency
// against their lower median — the lower median keeps a 2-worker fleet's
// slow half from hiding behind an average it dominates.
func Summarize(samples []Sample) *Summary {
	s := &Summary{Samples: len(samples), Metrics: []MetricSummary{}, Workers: []WorkerSummary{}}
	if len(samples) == 0 {
		return s
	}
	s.Start, s.End = samples[0].T, samples[len(samples)-1].T
	byName := map[string]*MetricSummary{}
	for _, sm := range samples {
		for i, n := range sm.Names {
			v := sm.Vals[i]
			m := byName[n]
			if m == nil {
				m = &MetricSummary{Name: n, Series: parseSeries(n), First: v, Min: v, Max: v}
				byName[n] = m
			}
			m.Last = v
			m.Delta = m.Last - m.First
			if v < m.Min {
				m.Min = v
			}
			if v > m.Max {
				m.Max = v
			}
		}
	}
	//torq:allow maprange -- collected into s.Metrics and sorted by name below
	for _, m := range byName {
		s.Metrics = append(s.Metrics, *m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })

	var hist Histogram
	for _, m := range s.Metrics {
		switch m.Kind {
		case LatencyBucket:
			hist.Counts[m.Index] = m.Last
			s.Latency = &hist
		case LatencySum:
			hist.SumNS = m.Last
		case WorkerField:
			// Sorted by name, one worker's series are adjacent.
			if n := len(s.Workers); n == 0 || s.Workers[n-1].ID != m.Index {
				s.Workers = append(s.Workers, WorkerSummary{ID: m.Index})
			}
			w := &s.Workers[len(s.Workers)-1]
			switch m.Field {
			case "shards":
				w.Shards = m.Last
			case "batches":
				w.Batches = m.Last
			case "alive":
				w.Alive = m.Last != 0
			case "lat_ns":
				w.MeanShardLat = time.Duration(m.Last) // the total until divided below
			}
		}
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	var lats []time.Duration
	for i := range s.Workers {
		if w := &s.Workers[i]; w.Shards > 0 {
			w.MeanShardLat /= time.Duration(w.Shards)
			lats = append(lats, w.MeanShardLat)
		} else {
			w.MeanShardLat = 0
		}
	}
	if len(lats) >= 2 {
		slices.Sort(lats)
		median := lats[(len(lats)-1)/2]
		for i := range s.Workers {
			l := s.Workers[i].MeanShardLat
			s.Workers[i].Straggler = s.Workers[i].Shards > 0 && l > stragglerFloor && l > stragglerFactor*median
		}
	}
	return s
}

// Scrape runs sources once, as a recorder tick does, and summarizes that
// one sample: the live view /metrics and /healthz render.
func Scrape(sources []Collector) *Summary {
	vals := map[string]int64{}
	for _, c := range sources {
		c(func(name string, v int64) { vals[name] = v })
	}
	sm := Sample{T: time.Now(), Names: slices.Sorted(maps.Keys(vals))}
	for _, n := range sm.Names {
		sm.Vals = append(sm.Vals, vals[n])
	}
	return Summarize([]Sample{sm})
}
