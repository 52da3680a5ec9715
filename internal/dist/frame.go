package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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
// Each message lists its fields once, in a walk method over a wire that
// either encodes or decodes, so the two directions cannot disagree. The
// steady-state data path is allocation-free on both sides: frames read into
// reusable buffers (readFrameInto), each wire keeps its encode buffer across
// frames, and decoded float arrays come from the wire's bump arena
// (f64Arena), which its owner resets once every array it handed out is dead.

// maxFrame bounds a frame's wire size; anything larger is a corrupt stream.
const maxFrame = 1 << 30

// Frame types. A worker answers any other type with fError.
const (
	fHello       byte = 1 // coordinator → worker: circuit, program digest
	fHelloAck    byte = 2 // worker → coordinator: digest echo
	fPass        byte = 3 // coordinator → worker: per-pass broadcast (theta, channels)
	fError       byte = 6 // worker → coordinator: session error text
	fShardBatch  byte = 7 // coordinator → worker: several shards' input rows
	fResultBatch byte = 8 // worker → coordinator: the matching outputs, in order
)

// readFrameInto reads one frame reusing *buf as the storage for both the
// length header and the payload, growing it only when a frame exceeds its
// capacity. (A stack header scratch would escape through the io.Reader
// interface and cost one heap allocation per frame.) The returned payload
// aliases *buf and is valid until the next call with the same buffer — the
// per-session read path holds exactly one frame at a time, so one buffer per
// session makes the steady-state read allocation-free.
//
// The header's length is the peer's claim, not data: a corrupt stream can
// claim anything. So the buffer grows only once it is full of bytes that
// actually arrived, and each step at most doubles it. A short stream behind
// a header claiming maxFrame costs memory in proportion to what was sent,
// not to what was claimed.
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

// emptyF64 is the canonical zero-length decoded array: non-nil (presence
// survives the round trip) without costing the arena or the GC anything.
var emptyF64 = []float64{}

// f64Arena is a bump allocator for decoded float arrays. One decode's arrays
// all share the arena's current chunk, so a steady-state session performs
// zero per-array allocations; the chunk doubles when a decode outgrows it,
// converging on the session's working-set size. reset recycles the whole
// arena at once — callers reset only at points where every array handed out
// since the previous reset is provably dead (the worker resets per shard
// batch, the coordinator per pass).
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

// wire walks messages' fields in order. Encoding appends each field to b;
// decoding reads each from b[off:], bounds-checks it and latches the first
// error, after which every read leaves its field as it was. A wire either
// encodes or decodes: decode points b at the caller's payload. Each side of
// a connection keeps its wires, so walking a message through one allocates
// nothing in steady state.
type wire struct {
	b     []byte
	off   int
	dec   bool
	err   error
	arena f64Arena // backs decoded float arrays; the owner resets it
}

// message is a frame payload; walk lists its fields once for both
// directions.
type message interface{ walk(w *wire) }

// encode builds one whole frame carrying m in w's buffer, valid until w's
// next encode. The header is reserved first and filled in once the payload
// length is known, so a sender issues one Write with no header scratch.
//
//torq:hotpath
func (w *wire) encode(typ byte, m message) []byte {
	w.begin(typ)
	m.walk(w)
	return w.finish()
}

// begin starts a frame of type typ; finish fills in its length and returns
// it. encode is the two around one message; the worker streams a result
// batch between them.
//
//torq:hotpath
func (w *wire) begin(typ byte) {
	w.b = w.b[:0]
	w.b = append(w.b, 0, 0, 0, 0, typ)
	w.dec, w.err = false, nil
}

//torq:hotpath
func (w *wire) finish() []byte {
	binary.LittleEndian.PutUint32(w.b, uint32(len(w.b)-4))
	return w.b
}

// decode reads m from one frame payload, which it must consume exactly.
// Float arrays borrow w's arena.
//
//torq:hotpath
func (w *wire) decode(b []byte, m message) error {
	w.b, w.off, w.dec, w.err = b, 0, true, nil
	m.walk(w)
	if w.err == nil && w.off != len(b) {
		w.fail("%d trailing bytes", len(b)-w.off)
	}
	return w.err
}

func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("dist: "+format, args...)
	}
}

//torq:hotpath
func (w *wire) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n < 0 || w.off+n > len(w.b) {
		w.fail("truncated payload (want %d bytes at offset %d of %d)", n, w.off, len(w.b))
		return nil
	}
	s := w.b[w.off : w.off+n]
	w.off += n
	return s
}

// u8, u32 and u64 walk one fixed-width field of any integer type of that
// width; int travels as its int64 two's complement.
//
//torq:hotpath
func u8[T ~uint8](w *wire, v *T) {
	if !w.dec {
		w.b = append(w.b, byte(*v))
	} else if s := w.take(1); s != nil {
		*v = T(s[0])
	}
}

//torq:hotpath
func u32[T ~uint32 | ~int32](w *wire, v *T) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(*v))
	} else if s := w.take(4); s != nil {
		*v = T(binary.LittleEndian.Uint32(s))
	}
}

//torq:hotpath
func u64[T ~uint64 | ~int64 | ~int](w *wire, v *T) {
	if !w.dec {
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*v))
	} else if s := w.take(8); s != nil {
		*v = T(binary.LittleEndian.Uint64(s))
	}
}

// bool travels as a u8; any nonzero byte decodes as true.
//
//torq:hotpath
func (w *wire) bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	u8(w, &b)
	*v = b != 0
}

// count walks an element count. Decoding checks it against the unread
// payload, in which each element takes at least minSize bytes, so nothing
// is sized from a count the bytes cannot back.
//
//torq:hotpath
func (w *wire) count(n, minSize int, what string) int {
	c := uint32(n)
	u32(w, &c)
	if !w.dec {
		return n
	}
	if w.err != nil {
		return 0
	}
	if rest := len(w.b) - w.off; int(c) > rest/minSize {
		w.fail("%s count %d exceeds the %d bytes left in the payload", what, c, rest)
		return 0
	}
	return int(c)
}

// str is a u32 byte length, then the bytes.
func (w *wire) str(v *string) {
	n := w.count(len(*v), 1, "string")
	if !w.dec {
		w.b = append(w.b, *v...)
	} else if s := w.take(n); s != nil {
		*v = string(s)
	}
}

// f64s is a u32 element count, then each element's IEEE-754 bits as a u64.
// Encoding grows the buffer once for the whole array.
//
//torq:hotpath
func (w *wire) f64s(v *[]float64) {
	n := w.count(len(*v), 8, "array")
	if !w.dec {
		off := len(w.b)
		w.b = slices.Grow(w.b, 8*n)[:off+8*n]
		for i, f := range *v {
			binary.LittleEndian.PutUint64(w.b[off+8*i:], math.Float64bits(f))
		}
		return
	}
	s := w.take(8 * n)
	if s == nil {
		return
	}
	out := w.arena.alloc(n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	*v = out
}

// optF64s is a nil-able array: a presence byte, then the array when set.
//
//torq:hotpath
func (w *wire) optF64s(v *[]float64) {
	present := *v != nil
	if w.bool(&present); present {
		w.f64s(v)
	} else {
		*v = nil
	}
}

// walkSlice walks a counted array: its count, then each element through
// each. Decoding sizes *s to the count, reusing its capacity.
//
//torq:hotpath
func walkSlice[T any](w *wire, s *[]T, minSize int, what string, each func(*wire, *T)) {
	walkN(w, s, w.count(len(*s), minSize, what), each)
}

// walkN walks n elements whose count travels elsewhere.
//
//torq:hotpath
func walkN[T any](w *wire, s *[]T, n int, each func(*wire, *T)) {
	if w.dec {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
	for i := 0; i < n && w.err == nil; i++ {
		each(w, &(*s)[i])
	}
}

// helloMsg carries the session handshake: the ansatz circuit (from which the
// worker deterministically recompiles the program) and the coordinator's
// program digest, which the worker must reproduce exactly.
type helloMsg struct {
	Name        string
	NumQubits   int
	Layers      int
	Reupload    bool
	NumParams   int
	Gates       []qsim.Gate
	LayerStarts []int
	Digest      qsim.ProgramDigest
}

// helloGateSize is one gate's wire size: the kind byte, then Q, C and P.
const helloGateSize = 1 + 3*8

func (m *helloMsg) walk(w *wire) {
	w.str(&m.Name)
	u64(w, &m.NumQubits)
	u64(w, &m.Layers)
	w.bool(&m.Reupload)
	u64(w, &m.NumParams)
	walkSlice(w, &m.Gates, helloGateSize, "gate", walkGate)
	walkSlice(w, &m.LayerStarts, 8, "layer", u64[int])
	walkDigest(w, &m.Digest)
}

func walkGate(w *wire, g *qsim.Gate) {
	u8(w, &g.Kind)
	u64(w, &g.Q)
	u64(w, &g.C)
	u64(w, &g.P)
}

func walkDigest(w *wire, g *qsim.ProgramDigest) {
	u64(w, &g.Instructions)
	u64(w, &g.Coeffs)
	u64(w, &g.DerivCoeffs)
	u64(w, &g.DiagAccums)
	u64(w, &g.Hash)
}

type helloAckMsg struct{ Digest qsim.ProgramDigest }

func (m *helloAckMsg) walk(w *wire) { walkDigest(w, &m.Digest) }

type errorMsg struct{ Msg string }

func (m *errorMsg) walk(w *wire) { w.str(&m.Msg) }

// passMsg is the per-pass broadcast: the pass id every subsequent shard
// batch references, the pass direction, the active tangent channels (one
// mask byte) and the ansatz coefficient vector theta. A forward pass
// supersedes the shard states the worker kept from the one before.
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

func (m *passMsg) walk(w *wire) {
	u64(w, &m.Pass)
	u64(w, &m.Trace)
	u64(w, &m.Span)
	w.bool(&m.Backward)
	var mask byte
	for k, on := range m.Active {
		if on {
			mask |= 1 << k
		}
	}
	u8(w, &mask)
	for k := range m.Active {
		m.Active[k] = mask&(1<<k) != 0
	}
	w.f64s(&m.Theta)
}

// shardBatch assigns several shards of one pass. Span is the coordinator's
// batch-span id (0 untraced): the parent the worker's per-shard spans hang
// under, so a batch's shard spans stitch into the coordinator's tree at the
// round trip that carried them.
type shardBatch struct {
	Pass   uint64
	Span   uint64
	Shards []shardMsg
}

// shardMsg is one shard: its index, and its input rows (the worker is
// offset-agnostic — a shard computes the same rows wherever it sat in the
// batch, which is what makes re-dispatch free). Optional arrays follow the
// pass direction: tangent rows for active channels, upstream gradients on
// backward passes.
type shardMsg struct {
	Shard     uint32
	Angles    []float64
	AngleTans [qsim.MaxTangents][]float64
	GZ        []float64
	GZTans    [qsim.MaxTangents][]float64
}

// minShardSize and minResultSize are the wire sizes of a batch entry whose
// arrays are all empty or absent: the shard id, then one length or presence
// field per array.
const (
	minShardSize  = 4 + 4 + 1 + 2*qsim.MaxTangents
	minResultSize = 4 + 4 + 2*qsim.MaxTangents
)

//torq:hotpath
func (m *shardBatch) walk(w *wire) {
	u64(w, &m.Pass)
	u64(w, &m.Span)
	walkSlice(w, &m.Shards, minShardSize, "shard", walkShard)
}

//torq:hotpath
func walkShard(w *wire, m *shardMsg) {
	u32(w, &m.Shard)
	w.f64s(&m.Angles)
	for k := range m.AngleTans {
		w.optF64s(&m.AngleTans[k])
	}
	w.optF64s(&m.GZ)
	for k := range m.GZTans {
		w.optF64s(&m.GZTans[k])
	}
}

// resultBatch answers one shard batch, entry for entry. The span section
// trails the entries: the worker's span records for the batch, empty on
// untraced passes, so the layout is direction- and trace-independent.
type resultBatch struct {
	Pass     uint64
	Backward bool
	Results  []resultMsg
	Spans    []trace.SpanRec
}

// resultMsg is one shard's outputs (see qsim.ShardResult).
type resultMsg struct {
	Shard      uint32
	Z          []float64
	ZTans      [qsim.MaxTangents][]float64
	DAngles    []float64
	DAngleTans [qsim.MaxTangents][]float64
	DTheta     []float64
	DiagT      []float64
}

// spanSize is one span record's wire size.
const spanSize = 8 + 8 + 1 + 4 + 8 + 8

// walk is head, the entries, then tail. The worker streams the same three
// pieces: it MUST encode each result before running the next shard, since
// ShardRunner results alias workspace buffers the next shard overwrites.
//
//torq:hotpath
func (m *resultBatch) walk(w *wire) {
	walkN(w, &m.Results, m.head(w, len(m.Results)), walkResult)
	m.tail(w)
}

// head walks the pass, the direction and the entry count n.
//
//torq:hotpath
func (m *resultBatch) head(w *wire, n int) int {
	u64(w, &m.Pass)
	w.bool(&m.Backward)
	return w.count(n, minResultSize, "result")
}

//torq:hotpath
func (m *resultBatch) tail(w *wire) { walkSlice(w, &m.Spans, spanSize, "span", walkSpan) }

//torq:hotpath
func walkResult(w *wire, m *resultMsg) {
	u32(w, &m.Shard)
	w.optF64s(&m.Z)
	for k := range m.ZTans {
		w.optF64s(&m.ZTans[k])
	}
	w.optF64s(&m.DAngles)
	for k := range m.DAngleTans {
		w.optF64s(&m.DAngleTans[k])
	}
	w.optF64s(&m.DTheta)
	w.optF64s(&m.DiagT)
}

// walkSpan carries one completed worker span. Worker is deliberately not on
// the wire: workers do not know their coordinator-side ids, so the
// coordinator stamps it at ingest.
//
//torq:hotpath
func walkSpan(w *wire, r *trace.SpanRec) {
	u64(w, &r.ID)
	u64(w, &r.Parent)
	u8(w, &r.Kind)
	u32(w, &r.Shard)
	u64(w, &r.Start)
	u64(w, &r.End)
}
