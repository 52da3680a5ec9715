// Package ftdc is the repository's flight-data recorder: an always-on,
// low-overhead telemetry capture in the spirit of full-time diagnostic data
// capture (FTDC) systems. A Recorder periodically snapshots registered
// collectors — the par scheduler's steal/chunk/region counters, the dist
// coordinator's per-worker latency and liveness series, the qsim engines'
// pass and epoch wall times — into a bounded in-memory ring of compact
// binary chunks, dumpable on demand (SIGUSR1 or a -ftdc-dump flag) and
// decodable offline by cmd/torq-ftdc.
//
// The encoding is schema-on-change: samples are flat sorted (name, int64)
// sets; a schema record naming the metrics is emitted only when the set
// changes (a new dist worker appearing, say), and within a chunk the first
// sample is absolute while the rest are signed-varint deltas against their
// predecessor — monotonic counters sampled on a steady interval delta down
// to a byte or two per series. Each chunk restarts from an absolute sample,
// so a ring that has evicted old chunks still decodes exactly.
//
// Summarize is the one reader of dist's series names and holds the
// straggler rule; torq-ftdc renders a capture from it, the debug plane a
// live Scrape.
//
// # Invariants
//
// Recording observes and must never perturb results: collectors read
// atomics and take no locks shared with compute hot paths, sampling runs on
// its own goroutine, and nothing the recorder does feeds back into
// execution.
//
// Decode treats a capture as hostile input: every count it reads is bounded
// by the bytes left before anything is allocated for it, so a corrupt or
// crafted dump yields an error, never a panic or an unbounded allocation.
package ftdc

import (
	"encoding/binary"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// Collector emits one subsystem's current counter values. Collectors are
// called on the sampling goroutine at every tick; they must be cheap
// (atomic loads) and must not block on locks shared with compute paths.
type Collector func(emit func(name string, value int64))

// Options configures a Recorder. Zero values select the defaults.
type Options struct {
	// Interval is the sampling period. Default 100ms — coarse enough that a
	// full day of capture is a few MB of deltas, fine enough to catch a
	// straggling worker within a pass.
	Interval time.Duration
	// MaxBytes bounds the retained capture across closed chunks; the oldest
	// chunks are evicted first. Default 1 MiB.
	MaxBytes int
}

func (o Options) interval() time.Duration {
	if o.Interval > 0 {
		return o.Interval
	}
	return 100 * time.Millisecond
}

func (o Options) maxBytes() int {
	if o.MaxBytes > 0 {
		return o.MaxBytes
	}
	return 1 << 20
}

// chunkSamples is how many samples a chunk holds before it is closed into
// the ring. Each closed chunk decodes independently (its first sample is
// absolute), so eviction granularity and re-sync granularity coincide.
const chunkSamples = 64

// magic heads every dump; the trailing digit is the dump format version.
const magic = "torqftdc1\n"

type schemaRec struct {
	gen   uint64
	names []string
}

type chunk struct {
	gen   uint64
	count int
	b     []byte
}

// Recorder samples registered collectors into a bounded chunk ring. All
// methods are safe for concurrent use; the zero value is not usable — call
// New.
type Recorder struct {
	opts Options

	mu      sync.Mutex
	sources []Collector
	schema  []string // current metric names, sorted
	gen     uint64   // current schema generation (0 = none yet)
	schemas []schemaRec
	prev    []int64 // previous sample's values, schema order
	prevT   int64   // previous sample's unix-ns timestamp
	cur     chunk
	ring    []chunk
	ringB   int // bytes across ring chunks
	samples uint64
	scratch map[string]int64
	free    [][]byte // recycled chunk buffers

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// New creates a Recorder sampling sources (see Standard); AddSource
// attaches more.
func New(o Options, sources ...Collector) *Recorder {
	return &Recorder{opts: o, sources: sources, scratch: make(map[string]int64)}
}

// AddSource registers a collector. Adding a source while the recorder runs
// takes effect at the next tick (the schema change is recorded as such).
func (r *Recorder) AddSource(c Collector) {
	r.mu.Lock()
	r.sources = append(r.sources, c)
	r.mu.Unlock()
}

// Start launches the sampling goroutine. Start after Stop begins a new
// capture epoch in the same ring; Start on a running recorder is a no-op.
func (r *Recorder) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
}

func (r *Recorder) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(r.opts.interval())
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			r.sampleAt(now)
		}
	}
}

// Stop halts sampling and records one final sample, so captures bracketing
// short runs still hold the end-state counters. Safe to call when stopped.
func (r *Recorder) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	stop, done := r.stop, r.done
	r.mu.Unlock()
	close(stop)
	<-done
	r.SampleNow()
}

// SampleNow records one sample immediately, regardless of the ticker. Used
// by Stop, by tests that need deterministic capture points, and by dump
// paths that want the freshest counters in the file.
func (r *Recorder) SampleNow() { r.sampleAt(time.Now()) }

// Samples reports how many samples the recorder has taken since New.
func (r *Recorder) Samples() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

func (r *Recorder) sampleAt(now time.Time) {
	r.mu.Lock()
	// Collect into scratch.
	clear(r.scratch)
	for _, c := range r.sources {
		c(r.emitScratch)
	}
	// Schema-on-change: a new generation only when the metric set differs.
	changed := r.gen == 0 || len(r.scratch) != len(r.schema)
	if !changed {
		for _, n := range r.schema {
			if _, ok := r.scratch[n]; !ok {
				changed = true
				break
			}
		}
	}
	if changed {
		r.closeChunkLocked()
		r.gen++
		r.schema = r.schema[:0]
		for n := range r.scratch {
			r.schema = append(r.schema, n)
		}
		slices.Sort(r.schema)
		r.schemas = append(r.schemas, schemaRec{gen: r.gen, names: slices.Clone(r.schema)})
		r.prev = slices.Grow(r.prev[:0], len(r.schema))[:len(r.schema)]
	}
	// Encode: absolute first sample per chunk, deltas after.
	t := now.UnixNano()
	if r.cur.count == 0 {
		r.cur.gen = r.gen
		r.cur.b = binary.AppendVarint(r.cur.b, t)
		for i, n := range r.schema {
			v := r.scratch[n]
			r.cur.b = binary.AppendVarint(r.cur.b, v)
			r.prev[i] = v
		}
	} else {
		r.cur.b = binary.AppendVarint(r.cur.b, t-r.prevT)
		for i, n := range r.schema {
			v := r.scratch[n]
			r.cur.b = binary.AppendVarint(r.cur.b, v-r.prev[i])
			r.prev[i] = v
		}
	}
	r.prevT = t
	r.cur.count++
	r.samples++
	if r.cur.count >= chunkSamples {
		r.closeChunkLocked()
	}
	r.mu.Unlock()
}

// emitScratch is the bound method handed to collectors, hoisted so the
// per-tick closure allocation disappears.
func (r *Recorder) emitScratch(name string, v int64) { r.scratch[name] = v }

func (r *Recorder) closeChunkLocked() {
	if r.cur.count == 0 {
		return
	}
	r.ring = append(r.ring, r.cur)
	r.ringB += len(r.cur.b)
	var buf []byte
	if n := len(r.free); n > 0 {
		buf, r.free = r.free[n-1][:0], r.free[:n-1]
	}
	r.cur = chunk{b: buf}
	for len(r.ring) > 0 && r.ringB > r.opts.maxBytes() {
		r.ringB -= len(r.ring[0].b)
		r.free = append(r.free, r.ring[0].b)
		r.ring = r.ring[1:]
	}
}

func (r *Recorder) schemaForLocked(gen uint64) []string {
	for i := len(r.schemas) - 1; i >= 0; i-- {
		if r.schemas[i].gen == gen {
			return r.schemas[i].names
		}
	}
	return nil
}

// WriteTo serializes the retained capture — evicted-oldest-first chunks plus
// the open chunk — emitting each schema only where the generation changes.
// The recorder keeps running; the capture is a snapshot under the lock.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	buf := make([]byte, 0, r.ringB+len(r.cur.b)+256)
	buf = append(buf, magic...)
	var lastGen uint64
	emit := func(c *chunk) {
		if c.count == 0 {
			return
		}
		if c.gen != lastGen {
			names := r.schemaForLocked(c.gen)
			buf = append(buf, 'S')
			buf = binary.AppendUvarint(buf, c.gen)
			buf = binary.AppendUvarint(buf, uint64(len(names)))
			for _, n := range names {
				buf = binary.AppendUvarint(buf, uint64(len(n)))
				buf = append(buf, n...)
			}
			lastGen = c.gen
		}
		buf = append(buf, 'C')
		buf = binary.AppendUvarint(buf, c.gen)
		buf = binary.AppendUvarint(buf, uint64(c.count))
		buf = binary.AppendUvarint(buf, uint64(len(c.b)))
		buf = append(buf, c.b...)
	}
	for i := range r.ring {
		emit(&r.ring[i])
	}
	emit(&r.cur)
	r.mu.Unlock()
	n, err := w.Write(buf)
	return int64(n), err
}

// DumpFile writes the capture to path (truncating any previous dump).
func (r *Recorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
