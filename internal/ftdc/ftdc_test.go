package ftdc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/qsim"
)

// fixedSource is a deterministic collector for encoding tests.
type fixedSource struct {
	names []string
	vals  []int64
}

func (f *fixedSource) collect(emit func(string, int64)) {
	for i, n := range f.names {
		emit(n, f.vals[i])
	}
}

func at(i int) time.Time { return time.Unix(1700000000, int64(i)*50_000_000) }

// TestRoundTripGolden is the encode → dump → decode determinism pin: fixed
// inputs must produce these exact dump bytes (schema-on-change layout,
// absolute first sample, signed-varint deltas), and decoding must
// reconstruct every sample exactly.
func TestRoundTripGolden(t *testing.T) {
	r := New(Options{})
	src := &fixedSource{names: []string{"b.chunks", "a.steals"}, vals: []int64{100, 0}}
	r.AddSource(src.collect)

	for i := 0; i < 4; i++ {
		r.sampleAt(at(i))
		src.vals[0] += 7   // steady counter: 1-byte deltas
		src.vals[1] += 300 // 2-byte deltas
	}

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = "746f727166746463310a" + // magic "torqftdc1\n"
		"53010208612e737465616c7308622e6368756e6b73" + // S gen=1 ["a.steals","b.chunks"]
		"430104218080d0e2c6bfce972f00c801" + // C gen=1 count=4; absolute t, 0, 100
		"80c2d72fd8040e" + // Δt=50ms, Δsteals=300, Δchunks=7
		"80c2d72fd8040e" +
		"80c2d72fd8040e"
	if got := hex.EncodeToString(buf.Bytes()); got != golden {
		t.Fatalf("dump bytes drifted from golden:\n got %s\nwant %s", got, golden)
	}

	samples, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("decoded %d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if !s.T.Equal(at(i)) {
			t.Errorf("sample %d time %v, want %v", i, s.T, at(i))
		}
		wantSteals, wantChunks := int64(i)*300, int64(100+7*i)
		if v, ok := s.Value("a.steals"); !ok || v != wantSteals {
			t.Errorf("sample %d a.steals = %d (ok=%v), want %d", i, v, ok, wantSteals)
		}
		if v, ok := s.Value("b.chunks"); !ok || v != wantChunks {
			t.Errorf("sample %d b.chunks = %d (ok=%v), want %d", i, v, ok, wantChunks)
		}
	}
}

// countRecords walks a dump's record stream and tallies schema and chunk
// records — the schema-on-change check needs the raw record structure, not
// the decoded samples.
func countRecords(t *testing.T, dump []byte) (schemas, chunks int) {
	t.Helper()
	data := dump[len(magic):]
	uvar := func() uint64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			t.Fatal("truncated uvarint in record walk")
		}
		data = data[n:]
		return v
	}
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		switch tag {
		case 'S':
			schemas++
			uvar()
			cnt := uvar()
			for i := uint64(0); i < cnt; i++ {
				l := uvar()
				data = data[l:]
			}
		case 'C':
			chunks++
			uvar()
			uvar()
			data = data[uvar():]
		default:
			t.Fatalf("unknown tag %q", tag)
		}
	}
	return
}

// TestSchemaOnChange pins the headline property: a stable metric set pays
// for its schema exactly once no matter how many samples and chunks follow,
// and only a genuine set change (a worker series appearing) emits a new one.
func TestSchemaOnChange(t *testing.T) {
	r := New(Options{})
	src := &fixedSource{names: []string{"m.a"}, vals: []int64{0}}
	r.AddSource(src.collect)

	n := 0
	tick := func() { r.sampleAt(at(n)); n++; src.vals[0]++ }
	for i := 0; i < 3*chunkSamples; i++ { // several closed chunks, one schema
		tick()
	}
	var buf bytes.Buffer
	r.WriteTo(&buf)
	if s, c := countRecords(t, buf.Bytes()); s != 1 || c < 3 {
		t.Fatalf("stable set: %d schema records across %d chunks, want exactly 1 across ≥3", s, c)
	}

	src.names = append(src.names, "m.b") // the set changes → one new schema
	src.vals = append(src.vals, 42)
	tick()
	tick()
	buf.Reset()
	r.WriteTo(&buf)
	if s, _ := countRecords(t, buf.Bytes()); s != 2 {
		t.Fatalf("after set change: %d schema records, want 2", s)
	}

	samples, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	last := samples[len(samples)-1]
	if v, ok := last.Value("m.b"); !ok || v != 42 {
		t.Fatalf("post-change sample missing m.b=42 (got %d, ok=%v)", v, ok)
	}
	if v, ok := last.Value("m.a"); !ok || v != int64(n-1) {
		t.Fatalf("post-change sample m.a = %d (ok=%v), want %d", v, ok, n-1)
	}
}

// TestRingEviction bounds the capture: with a tiny MaxBytes the oldest
// chunks must fall out while the retained tail still decodes exactly.
func TestRingEviction(t *testing.T) {
	r := New(Options{MaxBytes: 512})
	src := &fixedSource{names: []string{"m.x"}, vals: []int64{0}}
	r.AddSource(src.collect)
	const total = 40 * chunkSamples
	for i := 0; i < total; i++ {
		r.sampleAt(at(i))
		src.vals[0] = int64(i) * 11
	}
	var buf bytes.Buffer
	r.WriteTo(&buf)
	if buf.Len() > 2048 {
		t.Fatalf("dump is %d bytes; eviction did not bound the ring", buf.Len())
	}
	samples, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(samples) >= total {
		t.Fatalf("retained %d samples of %d; want a proper evicted suffix", len(samples), total)
	}
	// The retained suffix must be exact: sample recorded at tick i carries
	// the value written by tick i-1 (the source updates after sampling).
	first := total - len(samples)
	for j, s := range samples {
		i := first + j
		want := int64(i-1) * 11
		if i == 0 {
			want = 0
		}
		if v, _ := s.Value("m.x"); v != want || !s.T.Equal(at(i)) {
			t.Fatalf("retained sample %d (tick %d): value %d time %v, want %d %v", j, i, v, s.T, want, at(i))
		}
	}
}

// TestSummarizeFlagsStraggler drives the outlier rule directly: three
// workers, one an order of magnitude slower per shard, must be flagged —
// and only it.
func TestSummarizeFlagsStraggler(t *testing.T) {
	names := []string{
		"dist.w1.lat_ns", "dist.w1.shards",
		"dist.w2.lat_ns", "dist.w2.shards",
		"dist.w3.lat_ns", "dist.w3.shards",
	}
	mk := func(vals ...int64) Sample {
		return Sample{T: at(0), Names: names, Vals: vals}
	}
	samples := []Sample{
		mk(0, 0, 0, 0, 0, 0),
		// w1/w2: 100 shards at ~1ms; w3: 100 shards at ~30ms.
		mk(100e6, 100, 110e6, 100, 3000e6, 100),
	}
	sum := Summarize(samples)
	if len(sum.Workers) != 3 {
		t.Fatalf("summarized %d workers, want 3", len(sum.Workers))
	}
	for _, w := range sum.Workers {
		want := w.ID == 3
		if w.Straggler != want {
			t.Errorf("worker %d straggler=%v, want %v (mean %v)", w.ID, w.Straggler, want, w.MeanShardLat)
		}
	}
	// Sub-floor fleets never flag: scale everything down to microseconds.
	fast := []Sample{
		mk(0, 0, 0, 0, 0, 0),
		mk(100e3, 100, 110e3, 100, 3000e3, 100),
	}
	for _, w := range Summarize(fast).Workers {
		if w.Straggler {
			t.Errorf("worker %d flagged below the absolute floor (mean %v)", w.ID, w.MeanShardLat)
		}
	}
}

// TestSummarizeReadsSeriesShapes pins how Summarize reads dist's name
// shapes: a worker is listed once any of its series exists, one without
// shards is neither compared nor flagged, liveness comes from its alive
// series, the histogram takes the last sample's buckets and exact sum, and
// lookalike names stay plain.
func TestSummarizeReadsSeriesShapes(t *testing.T) {
	names := []string{
		"dist.lat_b00", "dist.lat_b27", "dist.lat_sum_ns",
		"dist.w1.alive", "dist.w1.lat_ns", "dist.w1.shards",
		"dist.w2.alive", "dist.w2.lat_ns", "dist.w2.shards",
		"dist.w3.alive", "dist.w3.shards",
		"dist.worker_kills", "dist.wx.shards",
	}
	sum := Summarize([]Sample{{T: at(0), Names: names, Vals: []int64{
		4, 1, 9e10,
		1, 100e6, 100,
		1, 3000e6, 100,
		0, 0,
		1, 5,
	}}})
	want := []WorkerSummary{
		{ID: 1, Alive: true, Shards: 100, MeanShardLat: time.Millisecond},
		{ID: 2, Alive: true, Shards: 100, MeanShardLat: 30 * time.Millisecond, Straggler: true},
		{ID: 3},
	}
	if !slices.Equal(sum.Workers, want) {
		t.Errorf("workers %+v, want %+v", sum.Workers, want)
	}
	if h := sum.Latency; h == nil || h.Counts[0] != 4 || h.Counts[27] != 1 || h.SumNS != 9e10 {
		t.Errorf("latency histogram %+v", sum.Latency)
	}
	for _, m := range sum.Metrics {
		if (m.Name == "dist.worker_kills" || m.Name == "dist.wx.shards") && m.Kind != Plain {
			t.Errorf("%s read as %+v, want a plain series", m.Name, m.Series)
		}
	}
	if lo, hi := BucketBounds(27); lo != 1<<26 || hi != 0 {
		t.Errorf("top bucket bounds [%d, %d), want [2^26, open)", lo, hi)
	}
	if lo, hi := BucketBounds(3); lo != 4 || hi != 8 {
		t.Errorf("bucket 3 bounds [%d, %d), want [4, 8)", lo, hi)
	}
}

// hostileDumps are hand-picked captures whose counts claim far more than
// their bytes can hold: before Decode bounded counts by the bytes left, the
// first panicked in makeslice, the second turned into a negative int and
// panicked in decodeChunk, and the last two died with a fatal out-of-memory.
func hostileDumps() []struct {
	name string
	data []byte
} {
	dump := func(fields ...any) []byte {
		b := []byte(magic)
		for _, f := range fields {
			switch f := f.(type) {
			case byte:
				b = append(b, f)
			case uint64:
				b = binary.AppendUvarint(b, f)
			case string:
				b = append(b, f...)
			}
		}
		return b
	}
	// Schema generation 1 with the one name "a".
	schema := []any{byte('S'), uint64(1), uint64(1), uint64(1), "a"}
	return []struct {
		name string
		data []byte
	}{
		{"schema count 2^62", dump(byte('S'), uint64(0), uint64(1)<<62)},
		{"chunk count 2^63", dump(append(schema, byte('C'), uint64(1), uint64(1)<<63, uint64(2), "\x00\x00")...)},
		{"schema count 2^40, no names", dump(byte('S'), uint64(0), uint64(1)<<40)},
		{"chunk count 2^40, empty body", dump(append(schema, byte('C'), uint64(1), uint64(1)<<40, uint64(0))...)},
	}
}

// TestDecodeRejectsHostileCounts pins that counts a capture cannot back
// with bytes are an error, not a panic or an unbounded allocation.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	for _, h := range hostileDumps() {
		if _, err := Decode(h.data); err == nil {
			t.Errorf("%s: decoded without error", h.name)
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes, seeded with a real capture, the
// hostile counts above, and byte-flipped copies of the capture: it must
// return samples or an error, never panic, and every sample it returns
// needs at least one byte of input.
func FuzzDecode(f *testing.F) {
	r := New(Options{})
	src := &fixedSource{names: []string{"b.chunks", "a.steals"}, vals: []int64{100, 0}}
	r.AddSource(src.collect)
	for i := 0; i < 3; i++ {
		r.sampleAt(at(i))
		src.vals[0] += 7
		src.vals[1] += 300
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	capture := buf.Bytes()
	seeds := [][]byte{capture}
	for _, h := range hostileDumps() {
		seeds = append(seeds, h.data)
	}
	rng := rand.New(rand.NewSource(517))
	for len(seeds) < 16 {
		seeds = append(seeds, flipByte(rng, capture))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := Decode(data)
		if err != nil {
			return
		}
		if len(samples) > len(data) {
			t.Fatalf("%d samples from %d bytes", len(samples), len(data))
		}
		for _, s := range samples {
			if len(s.Vals) != len(s.Names) {
				t.Fatalf("sample has %d values for %d names", len(s.Vals), len(s.Names))
			}
		}
	})
}

// flipByte returns a copy of b with one byte past the magic replaced.
func flipByte(rng *rand.Rand, b []byte) []byte {
	c := slices.Clone(b)
	c[len(magic)+rng.Intn(len(c)-len(magic))] = byte(rng.Intn(256))
	return c
}

// TestCaptureUnderLoad runs the full standard-source recorder at a tight
// interval while real sharded passes and stealing regions execute — the
// sample-while-stealing race check (meaningful under -race), and an
// end-to-end decode of a live capture.
func TestCaptureUnderLoad(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(4)
	r := New(Options{Interval: time.Millisecond}, Standard()...)
	r.Start()

	circ := qsim.StronglyEntangling.Build(4, 2)
	n, nq := 64, 4
	angles := make([]float64, n*nq)
	theta := make([]float64, circ.NumParams)
	for i := range angles {
		angles[i] = float64(i%7) * 0.3
	}
	gz := make([]float64, n*nq)
	for i := range gz {
		gz[i] = 0.1
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		pqc := &qsim.PQC{Circ: circ, Eng: qsim.EngineSharded}
		ws := qsim.NewWorkspace(n, nq)
		pqc.Forward(ws, angles, nil, theta)
		pqc.Backward(ws, gz, nil, make([]float64, n*nq), make([][]float64, qsim.MaxTangents), make([]float64, circ.NumParams))
	}
	r.Stop()

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatalf("live capture decoded only %d samples", len(samples))
	}
	last := samples[len(samples)-1]
	if v, ok := last.Value("par.chunks"); !ok || v == 0 {
		t.Fatalf("live capture shows no par.chunks activity (v=%d ok=%v)", v, ok)
	}
	if v, ok := last.Value("qsim.bwd_passes"); !ok || v == 0 {
		t.Fatalf("live capture shows no backward passes (v=%d ok=%v)", v, ok)
	}
}
