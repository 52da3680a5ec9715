// Package trace is the span recorder behind the live observability plane:
// a fixed ring of pre-sized span slots that records the per-pass tree —
// compile → per-worker request/reply exchange → per-shard execute →
// merge — on the coordinator, inside worker processes, and across the two
// (worker spans travel back inside dist result frames and are stitched
// under their coordinator parents by span id).
//
// Recording is opt-in: the TORQ_TRACE environment variable (any value but
// "" or "0") or SetEnabled arms the process-local gate, and the dist
// coordinator forces workers on per pass through the frame protocol's
// trace-context fields, so a traced coordinator traces its whole fleet.
// Disabled, Begin returns the zero Span and End is a no-op — two atomic
// loads on the hot path and nothing else.
//
// # Invariants
//
//   - Lock-free and zero-alloc: Begin/End/publish are //torq:nolock and
//     //torq:hotpath — atomics and clock reads only, no locks, maps,
//     channels, or allocations, proven by torq-lint's nolocktelemetry and
//     hotalloc analyzers and pinned by an AllocsPerRun test. Tracing can
//     therefore run inside the shard hot loops and the ftdc sampling
//     goroutine without perturbing either.
//   - Bit-invisible to gradients: tracing reads clocks and writes slots; it
//     never touches numeric state. The dist parity suite re-runs its
//     bit-identity matrix (including kill-recovery) with tracing forced on.
//   - Publish-on-End: a slot is claimed and written only when a span ends,
//     under a seqlock (odd while writing, ticket-even when stable), so
//     Snapshot — the cold reader behind the /trace endpoint — can run
//     concurrently with recording and simply skips slots it catches
//     mid-write or already lapped.
//   - Span ids are unique across coordinator and worker processes: the high
//     32 bits derive from the process start time, the low 32 count spans.
package trace

import (
	"os"
	"sync/atomic"
	"time"
)

// Kind classifies a span within the per-pass tree.
type Kind uint8

const (
	KUnknown  Kind = iota
	KCompile       // circuit → fused instruction stream compilation
	KForward       // one forward pass, root of its tree
	KBackward      // one backward pass, root of its tree
	_              // 4: the retired per-pass broadcast; span records keep their numbers
	KBatch         // one worker's request→reply exchange in a pass
	KShard         // one shard's execution on a worker
	KMerge         // ordered merge of shard results into pass outputs
)

// kindNames names each kind; the retired 4 has no name.
var kindNames = [...]string{KCompile: "compile", KForward: "forward", KBackward: "backward",
	KBatch: "batch", KShard: "shard", KMerge: "merge"}

// String names the kind for the /trace exposition (Chrome trace events).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Span is an in-flight span. It is a plain value — Begin hands it out on
// the stack, End publishes it into the ring — so tracing allocates nothing.
// The zero Span (ID 0) is the disabled span; all its methods are no-ops.
type Span struct {
	ID     uint64
	Parent uint64
	Kind   Kind
	Worker int32 // coordinator-side worker id; 0 = the local process
	Shard  int32 // shard index for KShard spans; -1 otherwise
	start  int64
}

// SpanRec is one completed span as stored in the ring, shipped inside dist
// result frames, and returned by Snapshot.
type SpanRec struct {
	ID     uint64
	Parent uint64
	Kind   Kind
	Worker int32
	Shard  int32
	Start  int64 // unix nanoseconds
	End    int64 // unix nanoseconds
}

// ringSize is the span-slot count (power of two). The ring holds the most
// recent ~4096 completed spans; older ones are overwritten, which is the
// right bias for a live debug plane — /trace shows the recent window.
const (
	ringSize = 1 << 12
	ringMask = ringSize - 1
)

// slot is one pre-sized ring entry. Every field is atomic: writers store
// fields individually under the seqlock, and Snapshot validates seq before
// and after reading, so a torn read is detected and skipped, never returned.
// kindWS packs kind (8 bits) | worker (24 bits) | shard (32 bits, two's
// complement) into one word.
type slot struct {
	seq    atomic.Uint64 // 2t+1 while writing ticket t, 2t+2 when stable
	id     atomic.Uint64
	parent atomic.Uint64
	kindWS atomic.Uint64
	start  atomic.Int64
	end    atomic.Int64
}

var (
	ring [ringSize]slot
	head atomic.Uint64 // total spans ever published; next ticket

	enabled     atomic.Bool
	currentPass atomic.Uint64

	// idHi seeds span ids with process-start entropy so coordinator and
	// worker processes never collide; |1 keeps every id nonzero.
	idHi  = (uint64(uint32(time.Now().UnixNano())) | 1) << 32
	idCtr atomic.Uint32
)

func init() {
	if v := os.Getenv("TORQ_TRACE"); v != "" && v != "0" {
		enabled.Store(true)
	}
}

// SetEnabled arms or disarms the process-local recording gate.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether the process-local gate is armed.
//
//torq:nolock
//torq:hotpath
func Enabled() bool { return enabled.Load() }

// ContextID is the process-unique trace context the coordinator stamps into
// each worker request: nonzero exactly when tracing is enabled, so a worker can
// gate per-shard recording on the coordinator's setting rather than its own
// environment.
//
//torq:nolock
//torq:hotpath
func ContextID() uint64 {
	if !enabled.Load() {
		return 0
	}
	return idHi
}

//torq:nolock
//torq:hotpath
func newID() uint64 { return idHi | uint64(idCtr.Add(1)) }

// Begin starts a span when the process-local gate is armed, returning the
// zero Span otherwise. parent of 0 means a root span.
//
//torq:nolock
//torq:hotpath
func Begin(kind Kind, parent uint64) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{ID: newID(), Parent: parent, Kind: kind, Shard: -1, start: time.Now().UnixNano()}
}

// BeginForced starts a span regardless of the process-local gate — the
// worker-side entry point, gated instead by the nonzero trace context the
// coordinator sent in the worker's request.
//
//torq:nolock
//torq:hotpath
func BeginForced(kind Kind, parent uint64) Span {
	return Span{ID: newID(), Parent: parent, Kind: kind, Shard: -1, start: time.Now().UnixNano()}
}

// BeginPass starts a pass-root span and publishes its id as the current
// pass, parenting subsequent compile/exchange/merge spans.
//
//torq:nolock
//torq:hotpath
func BeginPass(kind Kind) Span {
	sp := Begin(kind, 0)
	currentPass.Store(sp.ID)
	return sp
}

// CurrentPass is the span id of the innermost pass-root span, 0 when no
// traced pass is active.
//
//torq:nolock
//torq:hotpath
func CurrentPass() uint64 { return currentPass.Load() }

// End publishes the span into the ring. No-op on the zero Span.
//
//torq:nolock
//torq:hotpath
func (s Span) End() {
	if s.ID == 0 {
		return
	}
	publish(SpanRec{ID: s.ID, Parent: s.Parent, Kind: s.Kind, Worker: s.Worker,
		Shard: s.Shard, Start: s.start, End: time.Now().UnixNano()})
}

// Finish publishes the span and returns its record — the worker-side exit
// point, whose records additionally travel back to the coordinator inside
// the result frame's span section.
//
//torq:nolock
//torq:hotpath
func (s Span) Finish() SpanRec {
	if s.ID == 0 {
		return SpanRec{}
	}
	r := SpanRec{ID: s.ID, Parent: s.Parent, Kind: s.Kind, Worker: s.Worker,
		Shard: s.Shard, Start: s.start, End: time.Now().UnixNano()}
	publish(r)
	return r
}

// Ingest publishes a span recorded elsewhere — the coordinator calls it for
// each worker span decoded from a result frame, after stamping the worker
// id (workers do not know their coordinator-side ids).
//
//torq:nolock
//torq:hotpath
func Ingest(r SpanRec) { publish(r) }

// publish claims the next ring ticket and writes r into its slot under the
// seqlock. Concurrent publishers claim distinct tickets; a reader that
// catches the slot mid-write, or after a faster writer lapped it, sees a
// seq other than 2t+2 and skips it.
//
//torq:nolock
//torq:hotpath
func publish(r SpanRec) {
	t := head.Add(1) - 1
	s := &ring[t&ringMask]
	s.seq.Store(2*t + 1)
	s.id.Store(r.ID)
	s.parent.Store(r.Parent)
	s.kindWS.Store(uint64(uint8(r.Kind)) | uint64(uint32(r.Worker)&0xffffff)<<8 | uint64(uint32(r.Shard))<<32)
	s.start.Store(r.Start)
	s.end.Store(r.End)
	s.seq.Store(2*t + 2)
}

// Snapshot returns the completed spans currently in the ring, oldest first.
// Cold path (it allocates); safe to call while recording is live.
func Snapshot() []SpanRec {
	n := head.Load()
	lo := uint64(0)
	if n > ringSize {
		lo = n - ringSize
	}
	out := make([]SpanRec, 0, n-lo)
	for t := lo; t < n; t++ {
		s := &ring[t&ringMask]
		want := 2*t + 2
		if s.seq.Load() != want {
			continue
		}
		r := SpanRec{
			ID:     s.id.Load(),
			Parent: s.parent.Load(),
			Start:  s.start.Load(),
			End:    s.end.Load(),
		}
		kws := s.kindWS.Load()
		r.Kind = Kind(uint8(kws))
		r.Worker = int32(uint32(kws>>8) & 0xffffff)
		r.Shard = int32(uint32(kws >> 32))
		if s.seq.Load() != want {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Reset drops every recorded span and the current-pass marker (tests and
// A/B runs). Not safe against concurrent publishers — quiesce first.
func Reset() {
	head.Store(0)
	currentPass.Store(0)
	for i := range ring {
		ring[i].seq.Store(0)
	}
}
