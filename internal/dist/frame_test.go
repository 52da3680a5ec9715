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

// TestFrameRoundTrip checks the length-prefixed framing itself.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, body, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(body, p) {
			t.Fatalf("frame %d: type %d len %d, want type %d len %d", i, typ, len(body), i+1, len(p))
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
			Version:   uint16(rng.Intn(1 << 16)),
			Name:      strings.Repeat("q", rng.Intn(8)),
			NumQubits: rng.Intn(10),
			Layers:    rng.Intn(5),
			Reupload:  rng.Intn(2) == 1,
			NumParams: rng.Intn(200),
			Digest: qsim.ProgramDigest{
				Level: 3, Instructions: rng.Intn(500), Coeffs: rng.Intn(5000),
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
		got, err := decodeHello(encodeHello(hm))
		if err != nil || !reflect.DeepEqual(got, hm) {
			t.Fatalf("hello round trip: err %v\n got %+v\nwant %+v", err, got, hm)
		}

		am := helloAckMsg{Version: uint16(rng.Intn(1 << 16)), Digest: hm.Digest}
		gotA, err := decodeHelloAck(encodeHelloAck(am))
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
		gotP, err := decodePass(encodePass(pm))
		if err != nil {
			t.Fatalf("pass decode: %v", err)
		}
		// NaN breaks DeepEqual on purpose; compare bit patterns instead.
		if gotP.Pass != pm.Pass || gotP.Backward != pm.Backward ||
			gotP.Trace != pm.Trace || gotP.Span != pm.Span ||
			gotP.Active != pm.Active || !bitsEqual(gotP.Theta, pm.Theta) {
			t.Fatalf("pass round trip: got %+v want %+v", gotP, pm)
		}

		rows := rng.Intn(30)
		sm := shardMsg{
			Pass: rng.Uint64(), Shard: rng.Uint32(),
			Angles: randFloats(rng, rows), AngleTans: randOptTans(rng, rows),
			GZTans: randOptTans(rng, rows),
		}
		if rng.Intn(2) == 1 {
			sm.GZ = randFloats(rng, rows)
		}
		gotS, _, err := decodeShardBatchInto(frameBody(encodeShardBatchFrame(nil, sm.Pass, 0, []shardMsg{sm})), nil, nil)
		if err != nil || !reflect.DeepEqual(gotS, []shardMsg{sm}) {
			t.Fatalf("shard round trip: err %v\n got %+v\nwant %+v", err, gotS, sm)
		}

		rm := resultMsg{
			Pass: rng.Uint64(), Shard: rng.Uint32(), Backward: rng.Intn(2) == 1,
			Z: randFloats(rng, rows), ZTans: randOptTans(rng, rows),
			DAngles: randFloats(rng, rows), DAngleTans: randOptTans(rng, rows),
			DTheta: randFloats(rng, rng.Intn(20)), DiagT: randFloats(rng, rng.Intn(64)),
		}
		gotR, _, err := decodeResultBatchInto(frameBody(encodeResultBatchFrame(nil, rm.Pass, rm.Backward, []resultMsg{rm}, nil)), nil, nil, nil)
		if err != nil || !reflect.DeepEqual(gotR, []resultMsg{rm}) {
			t.Fatalf("result round trip: err %v\n got %+v\nwant %+v", err, gotR, rm)
		}

		em := errorMsg{Msg: strings.Repeat("x", rng.Intn(50))}
		gotE, err := decodeError(encodeError(em))
		if err != nil || gotE != em {
			t.Fatalf("error round trip: err %v got %+v want %+v", err, gotE, em)
		}
	}
}

// TestBatchCodecRoundTrip fuzzes the batch frames: every entry must survive
// exactly (the batch header's pass/direction stamped back into each entry),
// with and without an arena attached — arena-borrowed arrays must decode to
// the same bits as freshly allocated ones.
func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var arena f64Arena
	var encBuf []byte
	for trial := 0; trial < 100; trial++ {
		pass := rng.Uint64()
		backward := rng.Intn(2) == 1
		rows := rng.Intn(24)
		nb := rng.Intn(5)
		var shards []shardMsg
		var results []resultMsg
		for i := 0; i < nb; i++ {
			sm := shardMsg{
				Pass: pass, Shard: rng.Uint32(),
				Angles: randFloats(rng, rows), AngleTans: randOptTans(rng, rows),
				GZTans: randOptTans(rng, rows),
			}
			if rng.Intn(2) == 1 {
				sm.GZ = randFloats(rng, rows)
			}
			shards = append(shards, sm)
			results = append(results, resultMsg{
				Pass: pass, Shard: sm.Shard, Backward: backward,
				Z: randFloats(rng, rows), ZTans: randOptTans(rng, rows),
				DAngles: randFloats(rng, rows), DAngleTans: randOptTans(rng, rows),
				DTheta: randFloats(rng, rng.Intn(20)), DiagT: randFloats(rng, rng.Intn(64)),
			})
		}

		span := rng.Uint64()
		encBuf = encodeShardBatchFrame(encBuf, pass, span, shards)
		for _, a := range []*f64Arena{nil, &arena} {
			if a != nil {
				a.reset()
			}
			got, gotSpan, err := decodeShardBatchInto(frameBody(encBuf), a, nil)
			if err != nil || gotSpan != span || !reflect.DeepEqual(got, shards) {
				t.Fatalf("shard batch round trip (arena=%v): err %v span %x want %x\n got %+v\nwant %+v", a != nil, err, gotSpan, span, got, shards)
			}
		}

		// Worker is not on the wire (the coordinator stamps it at ingest), so
		// the fixture spans leave it zero.
		var spans []trace.SpanRec
		for i := 0; i < rng.Intn(4); i++ {
			spans = append(spans, trace.SpanRec{
				ID: rng.Uint64(), Parent: rng.Uint64(), Kind: trace.Kind(rng.Intn(8)),
				Shard: int32(rng.Intn(100) - 1), Start: rng.Int63(), End: rng.Int63(),
			})
		}
		encBuf = encodeResultBatchFrame(encBuf, pass, backward, results, spans)
		for _, a := range []*f64Arena{nil, &arena} {
			if a != nil {
				a.reset()
			}
			got, gotSpans, err := decodeResultBatchInto(frameBody(encBuf), a, nil, nil)
			if err != nil || !reflect.DeepEqual(got, results) {
				t.Fatalf("result batch round trip (arena=%v): err %v\n got %+v\nwant %+v", a != nil, err, got, results)
			}
			if len(gotSpans) != len(spans) {
				t.Fatalf("result batch spans: got %d want %d", len(gotSpans), len(spans))
			}
			for i := range spans {
				if gotSpans[i] != spans[i] {
					t.Fatalf("span %d round trip: got %+v want %+v", i, gotSpans[i], spans[i])
				}
			}
		}
	}
}

// TestFrameCodecSteadyStateAllocs pins the zero-alloc frame path: once the
// session buffers are warm, a full encode → frame-write → frame-read →
// decode cycle of a shard batch and its result batch performs zero heap
// allocations.
func TestFrameCodecSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows = 64
	var shards []shardMsg
	for i := 0; i < 8; i++ {
		shards = append(shards, shardMsg{
			Pass: 3, Shard: uint32(i),
			Angles:    randFloats(rng, rows),
			AngleTans: [qsim.MaxTangents][]float64{randFloats(rng, rows), nil, randFloats(rng, rows)},
			GZ:        randFloats(rng, rows),
		})
	}

	var results []resultMsg
	var spans []trace.SpanRec
	for i := 0; i < 8; i++ {
		results = append(results, resultMsg{
			Pass: 3, Shard: uint32(i), Backward: true,
			DAngles: randFloats(rng, rows),
			DTheta:  randFloats(rng, 12),
		})
		spans = append(spans, trace.SpanRec{
			ID: uint64(100 + i), Parent: 7, Kind: trace.KShard,
			Shard: int32(i), Start: int64(i * 1000), End: int64(i*1000 + 500),
		})
	}

	var (
		encBuf   []byte
		rdBuf    []byte
		arena    f64Arena
		decoded  []shardMsg
		rdecoded []resultMsg
		sdecoded []trace.SpanRec
		rarena   f64Arena
		wire     bytes.Buffer
		reader   bytes.Reader
	)
	cycle := func() {
		encBuf = encodeShardBatchFrame(encBuf, 3, 7, shards)
		wire.Reset()
		if _, err := wire.Write(encBuf); err != nil {
			t.Fatal(err)
		}
		reader.Reset(wire.Bytes())
		typ, body, err := readFrameInto(&reader, &rdBuf)
		if err != nil || typ != fShardBatch {
			t.Fatalf("read frame: type %d err %v", typ, err)
		}
		arena.reset()
		decoded, _, err = decodeShardBatchInto(body, &arena, decoded[:0])
		if err != nil || len(decoded) != len(shards) {
			t.Fatalf("decode: %d entries err %v", len(decoded), err)
		}

		encBuf = encodeResultBatchFrame(encBuf, 3, true, results, spans)
		wire.Reset()
		if _, err := wire.Write(encBuf); err != nil {
			t.Fatal(err)
		}
		reader.Reset(wire.Bytes())
		typ, body, err = readFrameInto(&reader, &rdBuf)
		if err != nil || typ != fResultBatch {
			t.Fatalf("read result frame: type %d err %v", typ, err)
		}
		rarena.reset()
		rdecoded, sdecoded, err = decodeResultBatchInto(body, &rarena, rdecoded[:0], sdecoded[:0])
		if err != nil || len(rdecoded) != len(results) || len(sdecoded) != len(spans) {
			t.Fatalf("decode result: %d entries %d spans err %v", len(rdecoded), len(sdecoded), err)
		}
	}
	cycle() // warm every buffer to steady state
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state frame cycle allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkFrameBatchRoundTrip measures the steady-state frame hot path —
// the per-batch transport constant the dist engine pays on top of compute —
// and reports allocs/op, which the zero-alloc design pins at 0.
func BenchmarkFrameBatchRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const rows = 64
	var shards []shardMsg
	for i := 0; i < 8; i++ {
		shards = append(shards, shardMsg{
			Pass: 3, Shard: uint32(i),
			Angles:    randFloats(rng, rows),
			AngleTans: [qsim.MaxTangents][]float64{randFloats(rng, rows), nil, randFloats(rng, rows)},
			GZ:        randFloats(rng, rows),
		})
	}
	var (
		encBuf  []byte
		rdBuf   []byte
		arena   f64Arena
		decoded []shardMsg
		wire    bytes.Buffer
		reader  bytes.Reader
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encBuf = encodeShardBatchFrame(encBuf, 3, 7, shards)
		wire.Reset()
		if _, err := wire.Write(encBuf); err != nil {
			b.Fatal(err)
		}
		reader.Reset(wire.Bytes())
		_, body, err := readFrameInto(&reader, &rdBuf)
		if err != nil {
			b.Fatal(err)
		}
		arena.reset()
		decoded, _, err = decodeShardBatchInto(body, &arena, decoded[:0])
		if err != nil || len(decoded) != len(shards) {
			b.Fatalf("decode: %d entries err %v", len(decoded), err)
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
	full := frameBody(encodeShardBatchFrame(nil, 9, 0, []shardMsg{
		{Pass: 9, Shard: 1, Angles: []float64{1, 2}},
		{Pass: 9, Shard: 2, Angles: []float64{3}},
	}))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeShardBatchInto(full[:cut], nil, nil); err == nil {
			t.Fatalf("batch truncation at %d of %d accepted", cut, len(full))
		}
	}
	// Trailing garbage must be rejected too: a frame is exactly one message.
	if _, _, err := decodeShardBatchInto(append(append([]byte{}, full...), 0), nil, nil); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// The result batch's trailing span section must truncate cleanly too.
	fullR := frameBody(encodeResultBatchFrame(nil, 9, true,
		[]resultMsg{{Pass: 9, Shard: 1, Backward: true, DAngles: []float64{1}}},
		[]trace.SpanRec{{ID: 3, Parent: 2, Kind: trace.KShard, Shard: 1, Start: 10, End: 20}}))
	for cut := 0; cut < len(fullR); cut++ {
		if _, _, err := decodeResultBatchInto(fullR[:cut], nil, nil, nil); err == nil {
			t.Fatalf("result batch truncation at %d of %d accepted", cut, len(fullR))
		}
	}
	if _, _, err := decodeResultBatchInto(append(append([]byte{}, fullR...), 0), nil, nil, nil); err == nil {
		t.Fatal("result batch trailing bytes accepted")
	}
}

// TestOversizedClaimsRejectedCheaply pins that a length or count a peer
// claims costs no memory until the bytes behind it arrive. A -listen worker
// reads its first frame before any handshake, so a 4-byte header must not
// buy a 1 GiB buffer. A header claiming maxFrame followed by 16 bytes, and
// every decoded count far beyond its payload, must fail with an error after
// allocating under 1 MiB.
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

	const huge = 1 << 28
	var hello enc
	hello.u16(ProtoVersion)
	hello.str("x")
	hello.int(1)
	hello.int(1)
	hello.bool(false)
	hello.int(0)
	noGates := append([]byte(nil), hello.b...)
	var shard enc
	shard.u64(1)
	shard.u64(0)
	shard.u32(1)
	shard.u32(7)
	cases := []struct {
		name string
		body []byte
		dec  func([]byte) error
	}{
		{"hello gates", binary.LittleEndian.AppendUint32(hello.b, huge), func(b []byte) error {
			_, err := decodeHello(b)
			return err
		}},
		{"hello layer starts", binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(noGates, 0), huge), func(b []byte) error {
			_, err := decodeHello(b)
			return err
		}},
		{"shard batch", binary.LittleEndian.AppendUint32(make([]byte, 16), huge), func(b []byte) error {
			_, _, err := decodeShardBatchInto(b, nil, nil)
			return err
		}},
		{"shard array", binary.LittleEndian.AppendUint32(shard.b, huge), func(b []byte) error {
			_, _, err := decodeShardBatchInto(b, &f64Arena{}, nil)
			return err
		}},
		{"result batch", binary.LittleEndian.AppendUint32(make([]byte, 9), huge), func(b []byte) error {
			_, _, err := decodeResultBatchInto(b, nil, nil, nil)
			return err
		}},
		{"result spans", binary.LittleEndian.AppendUint32(make([]byte, 13), huge), func(b []byte) error {
			_, _, err := decodeResultBatchInto(b, nil, nil, nil)
			return err
		}},
	}
	for _, c := range cases {
		n, err := allocated(func() error { return c.dec(c.body) })
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
	shards := len(frameBody(encodeShardBatchFrame(nil, 1, 0, []shardMsg{{Shard: 1}, {Shard: 2}})))
	if want := 8 + 8 + 4 + 2*minShardSize; shards != want {
		t.Errorf("two empty shard entries: body %d bytes, minShardSize implies %d", shards, want)
	}
	results := len(frameBody(encodeResultBatchFrame(nil, 1, false, []resultMsg{{Shard: 1}},
		[]trace.SpanRec{{ID: 1}})))
	if want := 8 + 1 + 4 + minResultSize + 4 + spanSize; results != want {
		t.Errorf("one empty result and one span: body %d bytes, minResultSize/spanSize imply %d", results, want)
	}
	h := helloMsg{Version: ProtoVersion, LayerStarts: []int{0}}
	h0 := len(encodeHello(h))
	h.Gates = []qsim.Gate{{}}
	if d := len(encodeHello(h)) - h0; d != helloGateSize {
		t.Errorf("one hello gate adds %d bytes, helloGateSize is %d", d, helloGateSize)
	}
}

// TestCodecGoldenBytes pins the wire encoding byte for byte: a change to the
// layout must bump ProtoVersion, and this fixture is what forces that
// conversation.
func TestCodecGoldenBytes(t *testing.T) {
	pass := passMsg{
		Pass:     0x0102030405060708,
		Trace:    0x2122232425262728,
		Span:     0x3132333435363738,
		Backward: true,
		Active:   [qsim.MaxTangents]bool{true, false, true},
		Theta:    []float64{1, -0.5},
	}
	batch := encodeShardBatchFrame(nil, 2, 0x4142434445464748, []shardMsg{
		{Pass: 2, Shard: 1, Angles: []float64{0.25}},
		{Pass: 2, Shard: 3, Angles: []float64{0.75}, GZ: []float64{-2}},
	})
	rbatch := encodeResultBatchFrame(nil, 2, true,
		[]resultMsg{{Pass: 2, Shard: 1, Backward: true, DAngles: []float64{0.25}, DTheta: []float64{1}}},
		[]trace.SpanRec{{ID: 0x5152535455565758, Parent: 0x6162636465666768,
			Kind: trace.KShard, Shard: 1, Start: 0x0A0B0C0D, End: 0x0A0B0C0E}})
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"pass", encodePass(pass),
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
			t.Errorf("%s golden bytes drifted:\n got %s\nwant %s\n(an intentional layout change must bump ProtoVersion)", c.name, got, c.want)
		}
	}
}

// TestVersionMismatchRejected drives a worker session in memory and checks a
// handshake with a foreign protocol version is refused with an error frame.
func TestVersionMismatchRejected(t *testing.T) {
	circ := qsim.NoEntanglement.Build(2, 1)
	prog := qsim.CompileProgram(circ)
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(toWorkerR, fromWorkerW)
	}()
	hm := helloMsg{
		Version: ProtoVersion + 41, Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: prog.Digest(),
	}
	if err := writeFrame(toWorkerW, fHello, encodeHello(hm)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(fromWorkerR)
	if err != nil {
		t.Fatal(err)
	}
	if typ != fError {
		t.Fatalf("worker replied frame type %d to a mismatched version, want fError", typ)
	}
	em, err := decodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(em.Msg, "version mismatch") {
		t.Fatalf("error %q does not name the version mismatch", em.Msg)
	}
	// A correct-version handshake on the same session must still succeed:
	// the refusal is per-handshake, not a poisoned session.
	hm.Version = ProtoVersion
	if err := writeFrame(toWorkerW, fHello, encodeHello(hm)); err != nil {
		t.Fatal(err)
	}
	typ, body, err = readFrame(fromWorkerR)
	if err != nil {
		t.Fatal(err)
	}
	if typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	ack, err := decodeHelloAck(body)
	if err != nil || ack.Digest != prog.Digest() {
		t.Fatalf("bad ack %+v (err %v)", ack, err)
	}
	toWorkerW.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker session ended with error: %v", err)
	}
}

// TestReservedFrameTypesRejected: frame types 4 and 5, the retired
// single-shard request and reply, must draw an "unexpected frame type"
// error frame from a handshaken worker, and the session must keep serving.
// So must a shard under a pass whose theta does not match the circuit.
func TestReservedFrameTypesRejected(t *testing.T) {
	circ := qsim.NoEntanglement.Build(2, 1)
	prog := qsim.CompileProgram(circ)
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(toWorkerR, fromWorkerW)
	}()
	hm := helloMsg{
		Version: ProtoVersion, Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: prog.Digest(),
	}
	exchange := func(typ byte, payload []byte) (byte, []byte) {
		if err := writeFrame(toWorkerW, typ, payload); err != nil {
			t.Fatal(err)
		}
		rt, body, err := readFrame(fromWorkerR)
		if err != nil {
			t.Fatal(err)
		}
		return rt, body
	}
	if typ, _ := exchange(fHello, encodeHello(hm)); typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	for _, reserved := range []byte{4, 5} {
		typ, body := exchange(reserved, []byte{1, 2, 3})
		if typ != fError {
			t.Fatalf("worker replied frame type %d to reserved type %d, want fError", typ, reserved)
		}
		em, err := decodeError(body)
		if err != nil || !strings.Contains(em.Msg, "unexpected frame type") {
			t.Fatalf("reserved type %d: error %q (decode err %v), want an unexpected-frame-type error", reserved, em.Msg, err)
		}
	}
	if typ, _ := exchange(fHello, encodeHello(hm)); typ != fHelloAck {
		t.Fatalf("session stopped serving after reserved frames: reply type %d", typ)
	}
	if err := writeFrame(toWorkerW, fPass, encodePass(passMsg{Pass: 1, Theta: []float64{0.5}})); err != nil {
		t.Fatal(err)
	}
	if _, err := toWorkerW.Write(encodeShardBatchFrame(nil, 1, 0, []shardMsg{{Pass: 1, Angles: make([]float64, circ.NumQubits)}})); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(fromWorkerR)
	if err != nil {
		t.Fatal(err)
	}
	if em, _ := decodeError(body); typ != fError || !strings.Contains(em.Msg, "theta") {
		t.Fatalf("shard under a 1-value theta (circuit has %d parameters): reply type %d %q, want a theta error", circ.NumParams, typ, em.Msg)
	}
	if typ, _ := exchange(fHello, encodeHello(hm)); typ != fHelloAck {
		t.Fatalf("session stopped serving after a bad theta: reply type %d", typ)
	}
	toWorkerW.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker session ended with error: %v", err)
	}
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
		Version: ProtoVersion, Name: circ.Name, NumQubits: circ.NumQubits,
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

	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(toWorkerR, fromWorkerW)
	}()
	for _, c := range cases {
		hm := valid
		hm.Gates = append([]qsim.Gate(nil), valid.Gates...)
		c.mutate(&hm)
		if err := writeFrame(toWorkerW, fHello, encodeHello(hm)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		typ, body, err := readFrame(fromWorkerR)
		if err != nil {
			t.Fatalf("%s: worker stream broke: %v", c.name, err)
		}
		if typ != fError {
			t.Fatalf("%s: worker replied frame type %d, want fError", c.name, typ)
		}
		if em, err := decodeError(body); err != nil || !strings.Contains(em.Msg, "refusing") {
			t.Fatalf("%s: error frame %q (decode err %v) does not name the refusal", c.name, em.Msg, err)
		}
	}
	if err := writeFrame(toWorkerW, fHello, encodeHello(valid)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(fromWorkerR)
	if err != nil {
		t.Fatal(err)
	}
	if typ != fHelloAck {
		t.Fatalf("worker replied frame type %d to a valid handshake, want fHelloAck", typ)
	}
	if ack, err := decodeHelloAck(body); err != nil || ack.Digest != prog.Digest() {
		t.Fatalf("bad ack %+v (err %v)", ack, err)
	}
	// The table bound leaves room for every shipped ansatz at paper scale
	// (7 qubits, 4 layers), with and without data re-uploading.
	for a := qsim.BasicEntangling; a <= qsim.NoEntanglement; a++ {
		for _, c := range []*qsim.Circuit{a.Build(7, 4), a.Build(7, 4).WithReupload()} {
			hm := helloMsg{
				Version: ProtoVersion, Name: c.Name, NumQubits: c.NumQubits,
				Layers: c.Layers, NumParams: c.NumParams, Gates: c.Gates,
				Reupload: c.Reupload, LayerStarts: c.LayerStarts(), Digest: qsim.CompileProgram(c).Digest(),
			}
			if err := writeFrame(toWorkerW, fHello, encodeHello(hm)); err != nil {
				t.Fatal(err)
			}
			if typ, body, err := readFrame(fromWorkerR); err != nil || typ != fHelloAck {
				em, _ := decodeError(body)
				t.Fatalf("%s (reupload %v) at paper scale: reply type %d %q (err %v), want fHelloAck", c.Name, c.Reupload, typ, em.Msg, err)
			}
		}
	}
	toWorkerW.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker session ended with error: %v", err)
	}
}
