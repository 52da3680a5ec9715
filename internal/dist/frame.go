package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// The wire format is length-prefixed binary frames, little-endian throughout:
//
//	u32 length | u8 type | payload (length−1 bytes)
//
// Float64 payloads are raw IEEE-754 bit patterns, so shard inputs and
// results cross the process boundary bit-exactly — the transport can never
// perturb the bit-identity guarantee.
//
// A session opens with a versioned handshake (fHello/fHelloAck) that carries
// the ansatz circuit and the compiled-program digest once; each pass then
// broadcasts the coefficient vector (fPass) and streams shard assignments
// (fShardBatch) against it. Every frame type is
// self-describing — optional arrays carry presence bytes — so the codec
// round-trips without session state.
//
// The steady-state data path is allocation-free on both sides: frames read
// into reusable payload buffers (readFrameInto), encoders append into
// caller-owned backing arrays (the *Into variants), and decoded float arrays
// come from a bump arena (f64Arena) whose reset is tied to the lifetime the
// caller already guarantees for the decoded message.

// ProtoVersion is the frame-protocol version. A worker that receives a
// handshake with any other version refuses the session.
// Version 2: passMsg gained FwdPass/Retain (forward-state affinity) and the
// batch frames fShardBatch/fResultBatch joined the protocol.
// Version 3: trace context — passMsg gained Trace/Span, shard batches carry
// a batch-span id, and result batches return the worker's span records.
// Version 4: passMsg lost Retain — every forward pass retains its shard
// states for the paired backward.
// Version 5: passMsg lost FwdPass — each shard has one owner worker for
// both halves of a training step, so a backward needs no pairing id.
const ProtoVersion uint16 = 5

// maxFrame bounds a frame's wire size; anything larger is a corrupt stream.
const maxFrame = 1 << 30

// Frame types. 4 and 5 are reserved: the retired single-shard request and
// reply, which a worker now answers with fError.
const (
	fHello       byte = 1 // coordinator → worker: version, circuit, program digest
	fHelloAck    byte = 2 // worker → coordinator: version + digest echo
	fPass        byte = 3 // coordinator → worker: per-pass broadcast (theta, channels)
	fError       byte = 6 // worker → coordinator: fatal session error text
	fShardBatch  byte = 7 // coordinator → worker: several shards' input rows
	fResultBatch byte = 8 // worker → coordinator: the matching outputs, in order
)

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// readFrameInto reads one frame reusing *buf as the storage for both the
// length header and the payload, growing it only when a frame exceeds its
// capacity. (A stack header scratch would escape through the io.Reader
// interface and cost one heap allocation per frame.) The returned payload
// aliases *buf and is valid until the next call with the same buffer — the
// per-session read path holds exactly one frame at a time, so one buffer per
// session makes the steady-state read allocation-free.
//
// The header's length is the peer's claim, not data: on a -listen worker the
// first frame is unauthenticated. So the buffer grows only once it is full
// of bytes that actually arrived, and each step at most doubles it. A short
// stream behind a header claiming maxFrame costs memory in proportion to
// what was sent, not to what was claimed.
//
//torq:hotpath
func readFrameInto(r io.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	if cap(*buf) < 8 {
		//torq:allow hotalloc -- first-use buffer creation, amortized across the session
		*buf = make([]byte, 1<<12)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || n > maxFrame {
		//torq:allow hotalloc -- malformed-frame error path; the connection is torn down
		return 0, nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	b := (*buf)[:cap(*buf)]
	for got := 0; ; {
		end := min(n, len(b))
		if _, err := io.ReadFull(r, b[got:end]); err != nil {
			*buf = b
			return 0, nil, err
		}
		if end == n {
			break
		}
		got = end
		//torq:allow hotalloc -- buffer growth to the session's max frame size, amortized
		grown := make([]byte, min(n, 2*len(b)))
		copy(grown, b)
		b = grown
	}
	*buf = b
	return b[0], b[1:n], nil
}

// enc builds a payload.
type enc struct{ b []byte }

//torq:hotpath
func (e *enc) u8(v byte) { e.b = append(e.b, v) }

//torq:hotpath
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

//torq:hotpath
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

//torq:hotpath
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

//torq:hotpath
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

//torq:hotpath
func (e *enc) int(v int) { e.u64(uint64(int64(v))) }

//torq:hotpath
func (e *enc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

//torq:hotpath
func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, f := range v {
		e.u64(math.Float64bits(f))
	}
}

// optF64s encodes a nil-able array: presence byte, then the array when set.
//
//torq:hotpath
func (e *enc) optF64s(v []float64) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64s(v)
}

// emptyF64 is the canonical zero-length decoded array: non-nil (presence
// survives the round trip) without costing the arena or the GC anything.
var emptyF64 = []float64{}

// f64Arena is a bump allocator for decoded float arrays. One decode's arrays
// all share the arena's current chunk, so a steady-state session performs
// zero per-array allocations; the chunk doubles when a decode outgrows it,
// converging on the session's working-set size. reset recycles the whole
// arena at once — callers reset only at points where every array handed out
// since the previous reset is provably dead (the worker resets per request
// frame, the coordinator per pass).
type f64Arena struct {
	buf []float64
	off int
}

//torq:hotpath
func (a *f64Arena) alloc(n int) []float64 {
	if n == 0 {
		return emptyF64
	}
	if a.off+n > len(a.buf) {
		sz := 2 * len(a.buf)
		if sz < n {
			sz = n
		}
		if sz < 1<<12 {
			sz = 1 << 12
		}
		//torq:allow hotalloc -- arena chunk doubling, amortized to zero per decode
		a.buf = make([]float64, sz)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

//torq:hotpath
func (a *f64Arena) reset() { a.off = 0 }

// dec consumes a payload; the first malformed field latches err and turns
// every subsequent read into a zero value. With an arena attached, decoded
// float arrays borrow arena memory instead of allocating.
type dec struct {
	b     []byte
	off   int
	err   error
	arena *f64Arena
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: "+format, args...)
	}
}

//torq:hotpath
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

//torq:hotpath
func (d *dec) u8() byte {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}

//torq:hotpath
func (d *dec) bool() bool { return d.u8() != 0 }

//torq:hotpath
func (d *dec) u16() uint16 {
	if s := d.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

//torq:hotpath
func (d *dec) u32() uint32 {
	if s := d.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

//torq:hotpath
func (d *dec) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

//torq:hotpath
func (d *dec) int() int { return int(int64(d.u64())) }
func (d *dec) str() string {
	n := d.u32()
	return string(d.take(int(n)))
}

//torq:hotpath
func (d *dec) f64s() []float64 {
	n := d.count(8, "array")
	s := d.take(8 * n)
	if s == nil {
		return nil
	}
	var out []float64
	if d.arena != nil {
		out = d.arena.alloc(n)
	} else {
		//torq:allow hotalloc -- arena-less decode is the cold handshake path
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

//torq:hotpath
func (d *dec) optF64s() []float64 {
	if d.u8() == 0 {
		return nil
	}
	return d.f64s()
}

// count reads an element count and checks it against the unread payload,
// in which each element takes at least minSize bytes. A count the remaining
// bytes cannot hold fails the decode before anything is sized from it.
//
//torq:hotpath
func (d *dec) count(minSize int, what string) int {
	n := int(d.u32())
	if rest := len(d.b) - d.off; d.err == nil && n > rest/minSize {
		d.fail("%s count %d exceeds the %d bytes left in the payload", what, n, rest)
		return 0
	}
	return n
}

// done checks the payload was consumed exactly.
//
//torq:hotpath
func (d *dec) done() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// helloMsg carries the session handshake: the ansatz circuit (from which the
// worker deterministically recompiles the level-3 program) and the
// coordinator's program digest, which the worker must reproduce exactly.
type helloMsg struct {
	Version     uint16
	Name        string
	NumQubits   int
	Layers      int
	Reupload    bool
	NumParams   int
	Gates       []qsim.Gate
	LayerStarts []int
	Digest      qsim.ProgramDigest
}

func encodeDigest(e *enc, g qsim.ProgramDigest) {
	e.int(g.Level)
	e.int(g.Instructions)
	e.int(g.Coeffs)
	e.int(g.DerivCoeffs)
	e.int(g.DiagAccums)
	e.u64(g.Hash)
}

func decodeDigest(d *dec) qsim.ProgramDigest {
	return qsim.ProgramDigest{
		Level:        d.int(),
		Instructions: d.int(),
		Coeffs:       d.int(),
		DerivCoeffs:  d.int(),
		DiagAccums:   d.int(),
		Hash:         d.u64(),
	}
}

func encodeHello(m helloMsg) []byte {
	var e enc
	e.u16(m.Version)
	e.str(m.Name)
	e.int(m.NumQubits)
	e.int(m.Layers)
	e.bool(m.Reupload)
	e.int(m.NumParams)
	e.u32(uint32(len(m.Gates)))
	for _, g := range m.Gates {
		e.u8(byte(g.Kind))
		e.int(g.Q)
		e.int(g.C)
		e.int(g.P)
	}
	e.u32(uint32(len(m.LayerStarts)))
	for _, s := range m.LayerStarts {
		e.int(s)
	}
	encodeDigest(&e, m.Digest)
	return e.b
}

// helloGateSize is one gate's wire size: the kind byte, then Q, C and P.
const helloGateSize = 1 + 3*8

func decodeHello(b []byte) (helloMsg, error) {
	d := dec{b: b}
	m := helloMsg{
		Version:   d.u16(),
		Name:      d.str(),
		NumQubits: d.int(),
		Layers:    d.int(),
		Reupload:  d.bool(),
		NumParams: d.int(),
	}
	ng := d.count(helloGateSize, "gate")
	for i := 0; i < ng && d.err == nil; i++ {
		m.Gates = append(m.Gates, qsim.Gate{
			Kind: qsim.GateKind(d.u8()), Q: d.int(), C: d.int(), P: d.int(),
		})
	}
	nl := d.count(8, "layer")
	for i := 0; i < nl && d.err == nil; i++ {
		m.LayerStarts = append(m.LayerStarts, d.int())
	}
	m.Digest = decodeDigest(&d)
	return m, d.done()
}

type helloAckMsg struct {
	Version uint16
	Digest  qsim.ProgramDigest
}

func encodeHelloAck(m helloAckMsg) []byte {
	var e enc
	e.u16(m.Version)
	encodeDigest(&e, m.Digest)
	return e.b
}

func decodeHelloAck(b []byte) (helloAckMsg, error) {
	d := dec{b: b}
	m := helloAckMsg{Version: d.u16(), Digest: decodeDigest(&d)}
	return m, d.done()
}

// passMsg is the per-pass broadcast: the pass id every subsequent shard
// frame references, the pass direction, the active tangent channels, and the
// ansatz coefficient vector theta. A forward pass supersedes the shard
// states the worker kept from the one before.
// The trace-context fields piggyback on the broadcast: Trace is the
// coordinator's trace context id (nonzero exactly when the pass is traced —
// the worker gates its per-shard span recording on it, so a traced
// coordinator traces its whole fleet regardless of worker environments), and
// Span is the coordinator's pass-root span id, the parent under which the
// worker's spans are stitched when no batch span applies. Both are zero on
// untraced passes.
type passMsg struct {
	Pass     uint64
	Trace    uint64
	Span     uint64
	Backward bool
	Active   [qsim.MaxTangents]bool
	Theta    []float64
}

func encodePass(m passMsg) []byte {
	var e enc
	e.u64(m.Pass)
	e.u64(m.Trace)
	e.u64(m.Span)
	e.bool(m.Backward)
	var mask byte
	for k := 0; k < qsim.MaxTangents; k++ {
		if m.Active[k] {
			mask |= 1 << k
		}
	}
	e.u8(mask)
	e.f64s(m.Theta)
	return e.b
}

func decodePass(b []byte) (passMsg, error) {
	d := dec{b: b}
	m := passMsg{Pass: d.u64(), Trace: d.u64(), Span: d.u64(), Backward: d.bool()}
	mask := d.u8()
	for k := 0; k < qsim.MaxTangents; k++ {
		m.Active[k] = mask&(1<<k) != 0
	}
	m.Theta = d.f64s()
	return m, d.done()
}

// shardMsg assigns one shard: the pass it belongs to, its index, and the
// shard's input rows (the worker is offset-agnostic — a shard computes the
// same rows wherever it sat in the batch, which is what makes re-dispatch
// free). Optional arrays follow the pass direction: tangent rows for active
// channels, upstream gradients on backward passes.
type shardMsg struct {
	Pass      uint64
	Shard     uint32
	Angles    []float64
	AngleTans [qsim.MaxTangents][]float64
	GZ        []float64
	GZTans    [qsim.MaxTangents][]float64
}

// resultMsg returns one shard's outputs (see qsim.ShardResult).
type resultMsg struct {
	Pass       uint64
	Shard      uint32
	Backward   bool
	Z          []float64
	ZTans      [qsim.MaxTangents][]float64
	DAngles    []float64
	DAngleTans [qsim.MaxTangents][]float64
	DTheta     []float64
	DiagT      []float64
}

// Batch frames carry several shard assignments (and their results) per
// round trip. The batch header states the pass (and, for results, the
// direction) once; decode stamps it back into every entry, so each entry is
// a complete shardMsg/resultMsg. The *Into codecs append into caller-owned
// backing and borrow arena memory, so the steady-state batch path allocates
// nothing.
//
// Unlike the payload-only codecs above, the batch encoders emit a complete
// frame — header included — built in the same caller-owned buffer, so a
// sender issues exactly one Write with no header scratch (a stack header
// would escape through the io.Writer interface and cost one heap allocation
// per frame, which is what retired writeFrame from this path).

// beginFrame reserves the 5-byte frame header at the start of the encode
// buffer; finishFrame fills in the length prefix and frame type once the
// payload length is known.
//
//torq:hotpath
func (e *enc) beginFrame() { e.b = append(e.b, 0, 0, 0, 0, 0) }

//torq:hotpath
func finishFrame(b []byte, typ byte) []byte {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	b[4] = typ
	return b
}

// frameBody strips the frame header from an encodeShardBatchFrame /
// encodeResultBatchFrame result, yielding the payload a decoder consumes.
//
//torq:hotpath
func frameBody(frame []byte) []byte { return frame[5:] }

// span is the coordinator's batch-span id (0 untraced): the parent the
// worker's per-shard spans hang under, so a batch's shard spans stitch into
// the coordinator's tree at the round trip that carried them.
//
//torq:hotpath
func encodeShardBatchFrame(buf []byte, pass, span uint64, shards []shardMsg) []byte {
	e := enc{b: buf[:0]}
	e.beginFrame()
	e.u64(pass)
	e.u64(span)
	e.u32(uint32(len(shards)))
	for i := range shards {
		m := &shards[i]
		e.u32(m.Shard)
		e.f64s(m.Angles)
		for k := 0; k < qsim.MaxTangents; k++ {
			e.optF64s(m.AngleTans[k])
		}
		e.optF64s(m.GZ)
		for k := 0; k < qsim.MaxTangents; k++ {
			e.optF64s(m.GZTans[k])
		}
	}
	return finishFrame(e.b, fShardBatch)
}

// minShardSize and minResultSize are the wire sizes of a batch entry whose
// arrays are all empty or absent: the shard id, then one length or presence
// field per array.
const (
	minShardSize  = 4 + 4 + 1 + 2*qsim.MaxTangents
	minResultSize = 4 + 4 + 2*qsim.MaxTangents
)

//torq:hotpath
func decodeShardBatchInto(b []byte, a *f64Arena, dst []shardMsg) ([]shardMsg, uint64, error) {
	d := dec{b: b, arena: a}
	pass := d.u64()
	span := d.u64()
	n := d.count(minShardSize, "shard")
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m := shardMsg{Pass: pass, Shard: d.u32(), Angles: d.f64s()}
		for k := 0; k < qsim.MaxTangents; k++ {
			m.AngleTans[k] = d.optF64s()
		}
		m.GZ = d.optF64s()
		for k := 0; k < qsim.MaxTangents; k++ {
			m.GZTans[k] = d.optF64s()
		}
		dst = append(dst, m)
	}
	return dst, span, d.done()
}

// encodeSpan/decodeSpan carry one completed worker span back to the
// coordinator inside a result batch's span section. Worker is deliberately
// not on the wire: workers do not know their coordinator-side ids, so the
// coordinator stamps it at ingest.
func encodeSpan(e *enc, r *trace.SpanRec) {
	e.u64(r.ID)
	e.u64(r.Parent)
	e.u8(byte(r.Kind))
	e.u32(uint32(r.Shard))
	e.int(int(r.Start))
	e.int(int(r.End))
}

// spanSize is one span record's wire size.
const spanSize = 8 + 8 + 1 + 4 + 8 + 8

func decodeSpan(d *dec, r *trace.SpanRec) {
	r.ID = d.u64()
	r.Parent = d.u64()
	r.Kind = trace.Kind(d.u8())
	r.Shard = int32(d.u32())
	r.Start = int64(d.int())
	r.End = int64(d.int())
}

// appendSpanSection closes a result batch with the worker's span records
// for the batch — always present, empty (count 0) on untraced passes, so
// the frame layout is direction- and trace-independent.
//
//torq:hotpath
func appendSpanSection(e *enc, spans []trace.SpanRec) {
	e.u32(uint32(len(spans)))
	for i := range spans {
		encodeSpan(e, &spans[i])
	}
}

// beginResultBatchFrame / appendResultEntry / finishFrame stream a result
// batch entry by entry. The worker MUST serialize each result before
// computing the next shard: ShardRunner results alias its reusable
// workspace buffers, so holding resultMsg values across shard executions
// would leave every entry pointing at the last shard's numbers.
//
//torq:hotpath
func beginResultBatchFrame(buf []byte, pass uint64, backward bool, count int) enc {
	e := enc{b: buf[:0]}
	e.beginFrame()
	e.u64(pass)
	e.bool(backward)
	e.u32(uint32(count))
	return e
}

//torq:hotpath
func appendResultEntry(e *enc, m *resultMsg) {
	e.u32(m.Shard)
	e.optF64s(m.Z)
	for k := 0; k < qsim.MaxTangents; k++ {
		e.optF64s(m.ZTans[k])
	}
	e.optF64s(m.DAngles)
	for k := 0; k < qsim.MaxTangents; k++ {
		e.optF64s(m.DAngleTans[k])
	}
	e.optF64s(m.DTheta)
	e.optF64s(m.DiagT)
}

//torq:hotpath
func encodeResultBatchFrame(buf []byte, pass uint64, backward bool, results []resultMsg, spans []trace.SpanRec) []byte {
	e := beginResultBatchFrame(buf, pass, backward, len(results))
	for i := range results {
		appendResultEntry(&e, &results[i])
	}
	appendSpanSection(&e, spans)
	return finishFrame(e.b, fResultBatch)
}

//torq:hotpath
func decodeResultBatchInto(b []byte, a *f64Arena, dst []resultMsg, sdst []trace.SpanRec) ([]resultMsg, []trace.SpanRec, error) {
	d := dec{b: b, arena: a}
	pass := d.u64()
	backward := d.bool()
	n := d.count(minResultSize, "result")
	dst = dst[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m := resultMsg{Pass: pass, Backward: backward, Shard: d.u32(), Z: d.optF64s()}
		for k := 0; k < qsim.MaxTangents; k++ {
			m.ZTans[k] = d.optF64s()
		}
		m.DAngles = d.optF64s()
		for k := 0; k < qsim.MaxTangents; k++ {
			m.DAngleTans[k] = d.optF64s()
		}
		m.DTheta = d.optF64s()
		m.DiagT = d.optF64s()
		dst = append(dst, m)
	}
	ns := d.count(spanSize, "span")
	sdst = sdst[:0]
	for i := 0; i < ns && d.err == nil; i++ {
		var r trace.SpanRec
		decodeSpan(&d, &r)
		sdst = append(sdst, r)
	}
	return dst, sdst, d.done()
}

type errorMsg struct{ Msg string }

func encodeError(m errorMsg) []byte {
	var e enc
	e.str(m.Msg)
	return e.b
}

func decodeError(b []byte) (errorMsg, error) {
	d := dec{b: b}
	m := errorMsg{Msg: d.str()}
	return m, d.done()
}
