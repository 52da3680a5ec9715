package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// frame is one payload framed for the wire: any type, any bytes, so tests
// can send what no message encodes.
func frame(typ byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(b, typ), payload...)
}

// frameBody strips a frame's 5-byte header, leaving the payload a decoder
// consumes.
func frameBody(frame []byte) []byte { return frame[5:] }

// readFrame reads one frame into a fresh buffer.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// encode builds one frame carrying m on a fresh wire.
func encode(typ byte, m message) []byte { return new(wire).encode(typ, m) }

// TestFrameRoundTrip checks the length-prefixed framing itself: frames of
// raw payloads and an encoded message read back whole.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		buf.Write(frame(byte(i+1), p))
	}
	msg := errorMsg{Msg: "x"}
	buf.Write(encode(fError, &msg))
	payloads = append(payloads, frameBody(encode(fError, &msg)))
	for i, p := range payloads {
		typ, body, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := byte(i + 1)
		if i == len(payloads)-1 {
			want = fError
		}
		if typ != want || !bytes.Equal(body, p) {
			t.Fatalf("frame %d: type %d len %d, want type %d len %d", i, typ, len(body), want, len(p))
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
	// A zero-length frame (no type byte) is a corrupt stream, not a frame.
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func randOptTans(rng *rand.Rand, n int) (out [qsim.MaxTangents][]float64) {
	for k := range out {
		if rng.Intn(2) == 1 {
			out[k] = randFloats(rng, n)
		}
	}
	return out
}

// TestCodecRoundTripProperty fuzzes every message type through its encoder
// and decoder: randomized shapes (including empty and absent arrays, NaN and
// denormal floats) must survive exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 200; trial++ {
		ng := rng.Intn(12)
		hm := helloMsg{
			Name:      strings.Repeat("q", rng.Intn(8)),
			NumQubits: rng.Intn(10),
			Layers:    rng.Intn(5),
			Reupload:  rng.Intn(2) == 1,
			NumParams: rng.Intn(200),
			Digest: qsim.ProgramDigest{
				Instructions: rng.Intn(500), Coeffs: rng.Intn(5000),
				DerivCoeffs: rng.Intn(5000), DiagAccums: rng.Intn(8),
				Hash: rng.Uint64(),
			},
		}
		for i := 0; i < ng; i++ {
			hm.Gates = append(hm.Gates, qsim.Gate{
				Kind: qsim.GateKind(rng.Intn(5)), Q: rng.Intn(8), C: rng.Intn(8) - 1, P: rng.Intn(20) - 1,
			})
		}
		for i := 0; i < rng.Intn(4); i++ {
			hm.LayerStarts = append(hm.LayerStarts, rng.Intn(100))
		}
		var got helloMsg
		err := new(wire).decode(frameBody(encode(fHello, &hm)), &got)
		if err != nil || !reflect.DeepEqual(got, hm) {
			t.Fatalf("hello round trip: err %v\n got %+v\nwant %+v", err, got, hm)
		}

		am := helloAckMsg{Digest: hm.Digest}
		var gotA helloAckMsg
		err = new(wire).decode(frameBody(encode(fHelloAck, &am)), &gotA)
		if err != nil || gotA != am {
			t.Fatalf("helloAck round trip: err %v got %+v want %+v", err, gotA, am)
		}

		pm := passMsg{
			Pass: rng.Uint64(), Trace: rng.Uint64(), Span: rng.Uint64(),
			Backward: rng.Intn(2) == 1, Theta: randFloats(rng, rng.Intn(40)),
		}
		pm.Theta = append(pm.Theta, math.NaN(), math.Inf(1), 5e-324)
		for k := range pm.Active {
			pm.Active[k] = rng.Intn(2) == 1
		}
		var gotP passMsg
		if err := new(wire).decode(frameBody(encode(fPass, &pm)), &gotP); err != nil {
			t.Fatalf("pass decode: %v", err)
		}
		// NaN breaks DeepEqual on purpose; compare bit patterns instead.
		if gotP.Pass != pm.Pass || gotP.Backward != pm.Backward ||
			gotP.Trace != pm.Trace || gotP.Span != pm.Span ||
			gotP.Active != pm.Active || !bitsEqual(gotP.Theta, pm.Theta) {
			t.Fatalf("pass round trip: got %+v want %+v", gotP, pm)
		}

		rows := rng.Intn(30)
		sb := shardBatch{Pass: rng.Uint64(), Span: rng.Uint64(), Shards: []shardMsg{{
			Shard:  rng.Uint32(),
			Angles: randFloats(rng, rows), AngleTans: randOptTans(rng, rows),
			GZTans: randOptTans(rng, rows),
		}}}
		if rng.Intn(2) == 1 {
			sb.Shards[0].GZ = randFloats(rng, rows)
		}
		var gotS shardBatch
		err = new(wire).decode(frameBody(encode(fShardBatch, &sb)), &gotS)
		if err != nil || !reflect.DeepEqual(gotS, sb) {
			t.Fatalf("shard round trip: err %v\n got %+v\nwant %+v", err, gotS, sb)
		}

		rb := resultBatch{Pass: rng.Uint64(), Backward: rng.Intn(2) == 1, Results: []resultMsg{{
			Shard: rng.Uint32(),
			Z:     randFloats(rng, rows), ZTans: randOptTans(rng, rows),
			DAngles: randFloats(rng, rows), DAngleTans: randOptTans(rng, rows),
			DTheta: randFloats(rng, rng.Intn(20)), DiagT: randFloats(rng, rng.Intn(64)),
		}}}
		var gotR resultBatch
		err = new(wire).decode(frameBody(encode(fResultBatch, &rb)), &gotR)
		if err != nil || !reflect.DeepEqual(gotR, rb) {
			t.Fatalf("result round trip: err %v\n got %+v\nwant %+v", err, gotR, rb)
		}

		em := errorMsg{Msg: strings.Repeat("x", rng.Intn(50))}
		var gotE errorMsg
		err = new(wire).decode(frameBody(encode(fError, &em)), &gotE)
		if err != nil || gotE != em {
			t.Fatalf("error round trip: err %v got %+v want %+v", err, gotE, em)
		}
	}
}

// TestBatchCodecRoundTrip fuzzes the batch frames: every entry and span
// must survive exactly, decoded on a fresh wire and on one reused across
// trials (its arena reset) into reused batches — arena-borrowed arrays must
// decode to the same bits as freshly allocated ones.
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var out, in wire
	var sbuf shardBatch
	var rbuf resultBatch
	for trial := 0; trial < 100; trial++ {
		rows := rng.Intn(24)
		nb := rng.Intn(5)
		sb := shardBatch{Pass: rng.Uint64(), Span: rng.Uint64()}
		rb := resultBatch{Pass: sb.Pass, Backward: rng.Intn(2) == 1}
		for i := 0; i < nb; i++ {
			sm := shardMsg{
				Shard:  rng.Uint32(),
				Angles: randFloats(rng, rows), AngleTans: randOptTans(rng, rows),
				GZTans: randOptTans(rng, rows),
			}
			if rng.Intn(2) == 1 {
				sm.GZ = randFloats(rng, rows)
			}
			sb.Shards = append(sb.Shards, sm)
			rb.Results = append(rb.Results, resultMsg{
				Shard: sm.Shard,
				Z:     randFloats(rng, rows), ZTans: randOptTans(rng, rows),
				DAngles: randFloats(rng, rows), DAngleTans: randOptTans(rng, rows),
				DTheta: randFloats(rng, rng.Intn(20)), DiagT: randFloats(rng, rng.Intn(64)),
			})
		}
		// Worker is not on the wire (the coordinator stamps it at ingest), so
		// the fixture spans leave it zero.
		for i := 0; i < rng.Intn(4); i++ {
			rb.Spans = append(rb.Spans, trace.SpanRec{
				ID: rng.Uint64(), Parent: rng.Uint64(), Kind: trace.Kind(rng.Intn(8)),
				Shard: int32(rng.Intn(100) - 1), Start: rng.Int63(), End: rng.Int63(),
			})
		}

		body := frameBody(out.encode(fShardBatch, &sb))
		var fresh shardBatch
		if err := new(wire).decode(body, &fresh); err != nil || !reflect.DeepEqual(fresh, sb) {
			t.Fatalf("shard batch round trip (fresh wire): err %v\n got %+v\nwant %+v", err, fresh, sb)
		}
		in.arena.reset()
		if err := in.decode(body, &sbuf); err != nil || !sameShards(sbuf, sb) {
			t.Fatalf("shard batch round trip (reused wire): err %v\n got %+v\nwant %+v", err, sbuf, sb)
		}

		body = frameBody(out.encode(fResultBatch, &rb))
		var freshR resultBatch
		if err := new(wire).decode(body, &freshR); err != nil || !reflect.DeepEqual(freshR, rb) {
			t.Fatalf("result batch round trip (fresh wire): err %v\n got %+v\nwant %+v", err, freshR, rb)
		}
		in.arena.reset()
		if err := in.decode(body, &rbuf); err != nil || !sameResults(rbuf, rb) {
			t.Fatalf("result batch round trip (reused wire): err %v\n got %+v\nwant %+v", err, rbuf, rb)
		}
	}
}

// sameShards and sameResults compare batches decoded into reused storage,
// whose empty entry and span lists are non-nil where a fresh decode's are
// nil.
func sameShards(a, b shardBatch) bool {
	return a.Pass == b.Pass && a.Span == b.Span && len(a.Shards) == len(b.Shards) &&
		(len(a.Shards) == 0 || reflect.DeepEqual(a.Shards, b.Shards))
}

func sameResults(a, b resultBatch) bool {
	return a.Pass == b.Pass && a.Backward == b.Backward &&
		len(a.Results) == len(b.Results) && (len(a.Results) == 0 || reflect.DeepEqual(a.Results, b.Results)) &&
		len(a.Spans) == len(b.Spans) && (len(a.Spans) == 0 || reflect.DeepEqual(a.Spans, b.Spans))
}

// steadyBatches is the fixture of the zero-allocation pin and the codec
// benchmark: eight 64-row forward shards with two tangent channels and
// upstream gradients, and their backward results with one span each.
func steadyBatches() (shardBatch, resultBatch) {
	rng := rand.New(rand.NewSource(8))
	const rows = 64
	sb := shardBatch{Pass: 3, Span: 7}
	rb := resultBatch{Pass: 3, Backward: true}
	for i := 0; i < 8; i++ {
		sb.Shards = append(sb.Shards, shardMsg{
			Shard:     uint32(i),
			Angles:    randFloats(rng, rows),
			AngleTans: [qsim.MaxTangents][]float64{randFloats(rng, rows), nil, randFloats(rng, rows)},
			GZ:        randFloats(rng, rows),
		})
	}
	for i := 0; i < 8; i++ {
		rb.Results = append(rb.Results, resultMsg{
			Shard:   uint32(i),
			DAngles: randFloats(rng, rows),
			DTheta:  randFloats(rng, 12),
		})
		rb.Spans = append(rb.Spans, trace.SpanRec{
			ID: uint64(100 + i), Parent: 7, Kind: trace.KShard,
			Shard: int32(i), Start: int64(i * 1000), End: int64(i*1000 + 500),
		})
	}
	return sb, rb
}

// TestFrameCodecSteadyStateAllocs pins the zero-alloc frame path: once the
// wires and buffers are warm, a full encode → frame-write → frame-read →
// decode cycle of a shard batch and its result batch performs zero heap
// allocations.
func TestFrameCodecSteadyStateAllocs(t *testing.T) {
	sb, rb := steadyBatches()
	var (
		out, in wire
		rdBuf   []byte
		gotS    shardBatch
		gotR    resultBatch
		stream  bytes.Buffer
		reader  bytes.Reader
	)
	roundTrip := func(typ byte, m, got message) {
		stream.Reset()
		if _, err := stream.Write(out.encode(typ, m)); err != nil {
			t.Fatal(err)
		}
		reader.Reset(stream.Bytes())
		rt, body, err := readFrameInto(&reader, &rdBuf)
		if err != nil || rt != typ {
			t.Fatalf("read frame: type %d err %v", rt, err)
		}
		in.arena.reset()
		if err := in.decode(body, got); err != nil {
			t.Fatalf("decode frame type %d: %v", typ, err)
		}
	}
	cycle := func() {
		roundTrip(fShardBatch, &sb, &gotS)
		roundTrip(fResultBatch, &rb, &gotR)
	}
	cycle() // warm every buffer to steady state
	if len(gotS.Shards) != len(sb.Shards) || len(gotR.Results) != len(rb.Results) || len(gotR.Spans) != len(rb.Spans) {
		t.Fatalf("decoded %d shards, %d results, %d spans", len(gotS.Shards), len(gotR.Results), len(gotR.Spans))
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state frame cycle allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkFrameBatchRoundTrip measures the steady-state frame hot path —
// the per-batch transport constant the dist engine pays on top of compute —
// and reports allocs/op, which the zero-alloc design pins at 0.
func BenchmarkFrameBatchRoundTrip(b *testing.B) {
	sb, _ := steadyBatches()
	var (
		out, in wire
		rdBuf   []byte
		got     shardBatch
		stream  bytes.Buffer
		reader  bytes.Reader
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		if _, err := stream.Write(out.encode(fShardBatch, &sb)); err != nil {
			b.Fatal(err)
		}
		reader.Reset(stream.Bytes())
		_, body, err := readFrameInto(&reader, &rdBuf)
		if err != nil {
			b.Fatal(err)
		}
		in.arena.reset()
		if err := in.decode(body, &got); err != nil || len(got.Shards) != len(sb.Shards) {
			b.Fatalf("decode: %d entries err %v", len(got.Shards), err)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCodecTruncationRejected checks the batch decoders fail cleanly (no
// panics, no silent zero values) on truncated and oversized payloads.
func TestCodecTruncationRejected(t *testing.T) {
	full := frameBody(encode(fShardBatch, &shardBatch{Pass: 9, Shards: []shardMsg{
		{Shard: 1, Angles: []float64{1, 2}},
		{Shard: 2, Angles: []float64{3}},
	}}))
	var sb shardBatch
	for cut := 0; cut < len(full); cut++ {
		if err := new(wire).decode(full[:cut], &sb); err == nil {
			t.Fatalf("batch truncation at %d of %d accepted", cut, len(full))
		}
	}
	// Trailing garbage must be rejected too: a frame is exactly one message.
	if err := new(wire).decode(append(append([]byte{}, full...), 0), &sb); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// The result batch's trailing span section must truncate cleanly too.
	fullR := frameBody(encode(fResultBatch, &resultBatch{Pass: 9, Backward: true,
		Results: []resultMsg{{Shard: 1, DAngles: []float64{1}}},
		Spans:   []trace.SpanRec{{ID: 3, Parent: 2, Kind: trace.KShard, Shard: 1, Start: 10, End: 20}}}))
	var rb resultBatch
	for cut := 0; cut < len(fullR); cut++ {
		if err := new(wire).decode(fullR[:cut], &rb); err == nil {
			t.Fatalf("result batch truncation at %d of %d accepted", cut, len(fullR))
		}
	}
	if err := new(wire).decode(append(append([]byte{}, fullR...), 0), &rb); err == nil {
		t.Fatal("result batch trailing bytes accepted")
	}
}

// TestOversizedClaimsRejectedCheaply pins that a length or count a peer
// claims costs no memory until the bytes behind it arrive: a 4-byte header
// must not buy a 1 GiB buffer. A header claiming maxFrame followed by 16
// bytes, and every decoded count far beyond its payload, must fail with an
// error after allocating under 1 MiB.
func TestOversizedClaimsRejectedCheaply(t *testing.T) {
	const limit = 1 << 20
	allocated := func(f func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	stream := binary.LittleEndian.AppendUint32(nil, maxFrame)
	stream = append(stream, make([]byte, 16)...)
	n, err := allocated(func() error {
		var buf []byte
		_, _, err := readFrameInto(bytes.NewReader(stream), &buf)
		return err
	})
	if err == nil || n >= limit {
		t.Errorf("header claiming %d bytes, then 16: err %v after allocating %d bytes", maxFrame, err, n)
	}

	// Each claim follows the fields before it, cut from a real payload: a
	// hello's name, qubits, layers, reupload and parameter count (30 bytes),
	// a shard batch's pass, span, count and first shard id (24 bytes).
	const huge = 1 << 28
	claim := func(prefix []byte, counts ...uint32) []byte {
		b := append([]byte(nil), prefix...)
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		return b
	}
	hello := frameBody(encode(fHello, &helloMsg{Name: "x", NumQubits: 1, Layers: 1}))[:30]
	shard := frameBody(encode(fShardBatch, &shardBatch{Pass: 1, Shards: []shardMsg{{Shard: 7}}}))[:24]
	cases := []struct {
		name string
		body []byte
		m    message
	}{
		{"hello gates", claim(hello, huge), &helloMsg{}},
		{"hello layer starts", claim(hello, 0, huge), &helloMsg{}},
		{"shard batch", claim(make([]byte, 16), huge), &shardBatch{}},
		{"shard array", claim(shard, huge), &shardBatch{}},
		{"result batch", claim(make([]byte, 9), huge), &resultBatch{}},
		{"result spans", claim(make([]byte, 9), 0, huge), &resultBatch{}},
	}
	for _, c := range cases {
		n, err := allocated(func() error { return new(wire).decode(c.body, c.m) })
		if err == nil || !strings.Contains(err.Error(), "count") || n >= limit {
			t.Errorf("%s claiming %d entries: err %v after allocating %d bytes", c.name, huge, err, n)
		}
	}

	// A session's claims: a small handshake whose full-register diagonals
	// would need 436 MB of tables, and a shard of more samples than the
	// coordinator's block, whose workspace would take 256 MB.
	s := &session{w: bufio.NewWriter(io.Discard)}
	n, err = allocated(func() error { return s.handle(fHello, diagHeavyHello()) })
	if err == nil || !strings.Contains(err.Error(), "refusing") || n >= limit {
		t.Errorf("diagonal-heavy hello: err %v after allocating %d bytes", err, n)
	}
	wideHello, widePass, wideBatch := wideShard()
	if err := s.handle(fHello, wideHello); err != nil {
		t.Fatal(err)
	}
	if err := s.handle(fPass, widePass); err != nil {
		t.Fatal(err)
	}
	n, err = allocated(func() error { return s.handle(fShardBatch, frameBody(wideBatch)) })
	if err == nil || !strings.Contains(err.Error(), "block") || n >= limit {
		t.Errorf("64-sample shard at 16 qubits: err %v after allocating %d bytes", err, n)
	}
}

// TestCodecMinimumEntrySizes pins the per-entry minimum sizes the decoders
// check counts against to the encoders' output for entries whose arrays are
// all empty or absent. A minimum larger than that would reject valid frames.
func TestCodecMinimumEntrySizes(t *testing.T) {
	shards := len(frameBody(encode(fShardBatch, &shardBatch{Pass: 1, Shards: []shardMsg{{Shard: 1}, {Shard: 2}}})))
	if want := 8 + 8 + 4 + 2*minShardSize; shards != want {
		t.Errorf("two empty shard entries: body %d bytes, minShardSize implies %d", shards, want)
	}
	results := len(frameBody(encode(fResultBatch, &resultBatch{Pass: 1,
		Results: []resultMsg{{Shard: 1}}, Spans: []trace.SpanRec{{ID: 1}}})))
	if want := 8 + 1 + 4 + minResultSize + 4 + spanSize; results != want {
		t.Errorf("one empty result and one span: body %d bytes, minResultSize/spanSize imply %d", results, want)
	}
	h := helloMsg{LayerStarts: []int{0}}
	h0 := len(encode(fHello, &h))
	h.Gates = []qsim.Gate{{}}
	if d := len(encode(fHello, &h)) - h0; d != helloGateSize {
		t.Errorf("one hello gate adds %d bytes, helloGateSize is %d", d, helloGateSize)
	}
}

// TestCodecGoldenBytes pins the wire encoding byte for byte: one walk per
// message keeps encode and decode in step, and this fixture keeps the
// layout itself from moving unnoticed.
func TestCodecGoldenBytes(t *testing.T) {
	pass := passMsg{
		Pass:     0x0102030405060708,
		Trace:    0x2122232425262728,
		Span:     0x3132333435363738,
		Backward: true,
		Active:   [qsim.MaxTangents]bool{true, false, true},
		Theta:    []float64{1, -0.5},
	}
	batch := encode(fShardBatch, &shardBatch{Pass: 2, Span: 0x4142434445464748, Shards: []shardMsg{
		{Shard: 1, Angles: []float64{0.25}},
		{Shard: 3, Angles: []float64{0.75}, GZ: []float64{-2}},
	}})
	rbatch := encode(fResultBatch, &resultBatch{Pass: 2, Backward: true,
		Results: []resultMsg{{Shard: 1, DAngles: []float64{0.25}, DTheta: []float64{1}}},
		Spans: []trace.SpanRec{{ID: 0x5152535455565758, Parent: 0x6162636465666768,
			Kind: trace.KShard, Shard: 1, Start: 0x0A0B0C0D, End: 0x0A0B0C0E}}})
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"pass", frameBody(encode(fPass, &pass)),
			"080706050403020128272625242322213837363534333231010502000000000000000000f03f000000000000e0bf"},
		// The batch encoder emits a complete frame: u32 length (type byte +
		// 78-byte payload = 0x4f) and the fShardBatch type lead the bytes; the
		// batch-span id sits between the pass id and the entry count.
		{"shardBatch", batch,
			"4f00000007" +
				"0200000000000000" + "4847464544434241" + "02000000" +
				"0100000001000000000000000000d03f00000000000000" +
				"0300000001000000000000000000e83f000000010100000000000000000000c0000000"},
		// The result batch carries the worker's span section after the entries:
		// u32 count then ID, Parent, Kind, Shard, Start, End per span.
		{"resultBatch", rbatch,
			"5d00000008" +
				"0200000000000000" + "01" + "01000000" +
				"0100000000000000" + "0101000000000000000000d03f" + "000000" + "0101000000000000000000f03f" + "00" +
				"01000000" +
				"5857565554535251" + "6867666564636261" + "06" + "01000000" +
				"0d0c0b0a00000000" + "0e0c0b0a00000000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s golden bytes drifted:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// serve runs a worker session in memory and returns exchange, which sends
// one frame and reads the worker's reply, and finish, which closes the
// session and checks it ended cleanly.
func serve(t *testing.T) (exchange func(frame []byte) (byte, []byte), finish func()) {
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(toWorkerR, fromWorkerW)
	}()
	exchange = func(frame []byte) (byte, []byte) {
		if _, err := toWorkerW.Write(frame); err != nil {
			t.Fatal(err)
		}
		typ, body, err := readFrame(fromWorkerR)
		if err != nil {
			t.Fatal(err)
		}
		return typ, body
	}
	finish = func() {
		toWorkerW.Close()
		if err := <-done; err != nil {
			t.Fatalf("worker session ended with error: %v", err)
		}
	}
	return exchange, finish
}

// errorText decodes an error frame's message.
func errorText(body []byte) string {
	var em errorMsg
	_ = new(wire).decode(body, &em) // a garbled text fails the caller's match
	return em.Msg
}

// TestDigestMismatchRejected drives a worker session in memory and checks a
// handshake whose digest hash differs by one bit is refused with an error
// frame naming the digest. The digest is the handshake's only guard, and
// the refusal is per handshake: the same session must then ack a correct
// hello.
func TestDigestMismatchRejected(t *testing.T) {
	circ := qsim.NoEntanglement.Build(2, 1)
	prog := qsim.CompileProgram(circ)
	exchange, finish := serve(t)
	hm := helloMsg{
		Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: prog.Digest(),
	}
	hm.Digest.Hash ^= 1
	typ, body := exchange(encode(fHello, &hm))
	if typ != fError {
		t.Fatalf("worker replied frame type %d to a mismatched digest, want fError", typ)
	}
	if msg := errorText(body); !strings.Contains(msg, "digest mismatch") {
		t.Fatalf("error %q does not name the digest mismatch", msg)
	}
	hm.Digest = prog.Digest()
	typ, body = exchange(encode(fHello, &hm))
	if typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	var ack helloAckMsg
	if err := new(wire).decode(body, &ack); err != nil || ack.Digest != prog.Digest() {
		t.Fatalf("bad ack %+v (err %v)", ack, err)
	}
	finish()
}

// TestUnknownFrameTypesRejected: a frame of a type the worker does not
// serve — 0, the numbers 4 and 5 no message uses, 9, 255, and the types
// only a worker sends — must draw an "unexpected frame type" error frame
// from a handshaken worker, and the session must keep serving. So must a
// shard under a pass whose theta does not match the circuit.
func TestUnknownFrameTypesRejected(t *testing.T) {
	circ := qsim.NoEntanglement.Build(2, 1)
	prog := qsim.CompileProgram(circ)
	exchange, finish := serve(t)
	hello := helloFor(circ, prog.Digest())
	if typ, _ := exchange(frame(fHello, hello)); typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	for _, unknown := range []byte{0, fHelloAck, 4, 5, fResultBatch, 9, 255} {
		typ, body := exchange(frame(unknown, []byte{1, 2, 3}))
		if msg := errorText(body); typ != fError || !strings.Contains(msg, "unexpected frame type") {
			t.Fatalf("type %d: reply type %d %q, want an unexpected-frame-type error", unknown, typ, msg)
		}
	}
	if typ, _ := exchange(frame(fHello, hello)); typ != fHelloAck {
		t.Fatalf("session stopped serving after unknown frames: reply type %d", typ)
	}
	pass := encode(fPass, &passMsg{Pass: 1, Theta: []float64{0.5}})
	batch := encode(fShardBatch, &shardBatch{Pass: 1, Shards: []shardMsg{{Angles: make([]float64, circ.NumQubits)}}})
	typ, body := exchange(append(pass, batch...))
	if msg := errorText(body); typ != fError || !strings.Contains(msg, "theta") {
		t.Fatalf("shard under a 1-value theta (circuit has %d parameters): reply type %d %q, want a theta error", circ.NumParams, typ, msg)
	}
	if typ, _ := exchange(frame(fHello, hello)); typ != fHelloAck {
		t.Fatalf("session stopped serving after a bad theta: reply type %d", typ)
	}
	finish()
}

// TestMalformedHelloRejected drives a worker session in memory with
// handshakes whose circuits would index outside the compiler's tables. Each
// must be refused with an error frame instead of panicking the worker, and
// a valid handshake must still succeed on the same session afterwards, as
// must every shipped ansatz at paper scale.
func TestMalformedHelloRejected(t *testing.T) {
	circ := qsim.StronglyEntangling.Build(3, 2)
	prog := qsim.CompileProgram(circ)
	valid := helloMsg{
		Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: prog.Digest(),
	}
	cnot := -1
	for i, g := range circ.Gates {
		if g.Kind == qsim.CNOT {
			cnot = i
			break
		}
	}
	if cnot < 0 {
		t.Fatal("test premise broken: circuit has no CNOT")
	}
	cases := []struct {
		name   string
		mutate func(hm *helloMsg)
	}{
		{"reupload without layer starts", func(hm *helloMsg) {
			hm.Reupload, hm.Layers, hm.LayerStarts = true, 3, nil
		}},
		{"negative CNOT control", func(hm *helloMsg) { hm.Gates[cnot].C = -3 }},
		{"negative parameter count", func(hm *helloMsg) { hm.NumParams = -5 }},
		{"unknown gate kind", func(hm *helloMsg) { hm.Gates[0].Kind = 200 }},
	}

	exchange, finish := serve(t)
	for _, c := range cases {
		hm := valid
		hm.Gates = append([]qsim.Gate(nil), valid.Gates...)
		c.mutate(&hm)
		typ, body := exchange(encode(fHello, &hm))
		if typ != fError {
			t.Fatalf("%s: worker replied frame type %d, want fError", c.name, typ)
		}
		if msg := errorText(body); !strings.Contains(msg, "refusing") {
			t.Fatalf("%s: error frame %q does not name the refusal", c.name, msg)
		}
	}
	typ, body := exchange(encode(fHello, &valid))
	if typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	var ack helloAckMsg
	if err := new(wire).decode(body, &ack); err != nil || ack.Digest != prog.Digest() {
		t.Fatalf("bad ack %+v (err %v)", ack, err)
	}
	// The table bound leaves room for every shipped ansatz at paper scale
	// (7 qubits, 4 layers), with and without data re-uploading.
	for a := qsim.BasicEntangling; a <= qsim.NoEntanglement; a++ {
		for _, c := range []*qsim.Circuit{a.Build(7, 4), a.Build(7, 4).WithReupload()} {
			hm := helloMsg{
				Name: c.Name, NumQubits: c.NumQubits,
				Layers: c.Layers, NumParams: c.NumParams, Gates: c.Gates,
				Reupload: c.Reupload, LayerStarts: c.LayerStarts(), Digest: qsim.CompileProgram(c).Digest(),
			}
			if typ, body := exchange(encode(fHello, &hm)); typ != fHelloAck {
				t.Fatalf("%s (reupload %v) at paper scale: reply type %d %q, want fHelloAck", c.Name, c.Reupload, typ, errorText(body))
			}
		}
	}
	finish()
}
