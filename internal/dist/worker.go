package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// failAfterEnv is a test/chaos hook: when set to n > 0, the worker process
// exits (code 3) when it reaches its (n+1)-th shard — counted per shard, not
// per request, so it dies mid-request — before replying; a deterministic
// stand-in for a worker dying mid-pass, used by the coordinator's
// re-dispatch recovery tests.
const failAfterEnv = "TORQ_DIST_FAIL_AFTER_SHARDS"

// requireCachedEnv is a test hook: when set, a backward shard that misses
// the states its forward kept is an error instead of a silent recompute.
// Every shard's owner worker runs both halves of a step, so with no worker
// death a paired backward never misses, at any worker count.
const requireCachedEnv = "TORQ_DIST_REQUIRE_CACHED"

// stallEnv is a test/chaos hook: when set to a positive integer, the worker
// sleeps that many milliseconds before executing each shard — a
// deterministic straggler for exercising the coordinator's latency telemetry
// and the ftdc dump's outlier flagging. The work still completes and stays
// bit-identical; only the timing changes.
const stallEnv = "TORQ_DIST_STALL_MS"

// session is one coordinator connection's worker-side state.
type session struct {
	r *bufio.Reader
	w *bufio.Writer

	runner *qsim.ShardRunner
	pass   uint64 // the last request's pass id

	served        int
	failAfter     int
	requireCached bool
	stall         time.Duration

	// Steady-state transport scratch: frames read into rbuf and encode
	// through out, and decoded request arrays borrow in's arena (reset per
	// request — safe because the runner copies every input it keeps), so
	// serving a request allocates nothing.
	rbuf    []byte
	in, out wire
	batch   shardBatch
	spans   []trace.SpanRec
}

// ServeConn speaks the worker side of the dist protocol over (r, w) until
// the coordinator closes the stream. Protocol errors that leave the framing
// intact are reported as fError frames and the session continues; a broken
// frame stream is unrecoverable and returns an error.
func ServeConn(r io.Reader, w io.Writer) error {
	s := &session{r: bufio.NewReaderSize(r, 1<<16), w: bufio.NewWriterSize(w, 1<<16)}
	if v := os.Getenv(failAfterEnv); v != "" {
		s.failAfter, _ = strconv.Atoi(v)
	}
	s.requireCached = os.Getenv(requireCachedEnv) != ""
	if v, err := strconv.Atoi(os.Getenv(stallEnv)); err == nil && v > 0 {
		s.stall = time.Duration(v) * time.Millisecond
	}
	for {
		typ, body, err := readFrameInto(s.r, &s.rbuf)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.handle(typ, body); err != nil {
			if sendErr := s.send(s.out.encode(fError, &errorMsg{Msg: err.Error()})); sendErr != nil {
				return sendErr
			}
		}
	}
}

func (s *session) send(frame []byte) error {
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	return s.w.Flush()
}

func (s *session) handle(typ byte, body []byte) error {
	switch typ {
	case fHello:
		return s.hello(body)
	case fShardBatch:
		return s.shardBatch(body)
	case fError:
		// Coordinator-side failure notice; nothing to do on this side.
		return nil
	}
	return fmt.Errorf("unexpected frame type %d", typ)
}

// Sanity bounds on handshake payloads, enforced BEFORE compiling anything:
// compilation allocates 2^nq-sized tables, so an absurd circuit — from a
// coordinator bug or a corrupted stream; the fuzzers treat the frame stream
// as hostile — must be refused with an error frame rather than OOM-killing
// the worker. Paper-scale circuits need a few KiB of the tables
// maxWorkerTableBytes bounds.
const (
	maxWorkerQubits     = 24
	maxWorkerGates      = 1 << 20
	maxWorkerParams     = maxWorkerGates
	maxWorkerTableBytes = 64 << 20
)

// checkCircuit refuses a handshake circuit the compiler or the kernels
// cannot execute: every index it carries is used to slice a table, so an
// unchecked value from a malformed frame would panic the worker process.
func checkCircuit(hm *helloMsg) error {
	nq := hm.NumQubits
	if nq < 1 || nq > maxWorkerQubits {
		return fmt.Errorf("refusing circuit with %d qubits (worker bound: %d)", nq, maxWorkerQubits)
	}
	if len(hm.Gates) > maxWorkerGates {
		return fmt.Errorf("refusing circuit with %d gates (worker bound: %d)", len(hm.Gates), maxWorkerGates)
	}
	if hm.NumParams < 0 || hm.NumParams > maxWorkerParams {
		return fmt.Errorf("refusing circuit with %d parameters (worker bound: %d)", hm.NumParams, maxWorkerParams)
	}
	for _, g := range hm.Gates {
		var twoQubit, param bool
		switch g.Kind {
		case qsim.RX, qsim.RY, qsim.RZ:
			param = true
		case qsim.CRZ:
			twoQubit, param = true, true
		case qsim.CNOT:
			twoQubit = true
		default:
			return fmt.Errorf("refusing gate %+v of unknown kind", g)
		}
		ok := g.Q >= 0 && g.Q < nq
		if twoQubit {
			ok = ok && g.C >= 0 && g.C < nq && g.C != g.Q
		}
		if param {
			ok = ok && g.P >= 0 && g.P < hm.NumParams
		} else {
			ok = ok && g.P == -1
		}
		if !ok {
			return fmt.Errorf("refusing gate %+v outside circuit bounds (nq=%d, params=%d)", g, nq, hm.NumParams)
		}
	}
	if hm.Reupload {
		if len(hm.LayerStarts) != hm.Layers {
			return fmt.Errorf("refusing re-uploading circuit with %d layers but %d layer starts", hm.Layers, len(hm.LayerStarts))
		}
		prev := 0
		for _, st := range hm.LayerStarts {
			if st < prev || st > len(hm.Gates) {
				return fmt.Errorf("refusing layer starts %v: not ascending within [0, %d]", hm.LayerStarts, len(hm.Gates))
			}
			prev = st
		}
	}
	return nil
}

func (s *session) hello(body []byte) error {
	var hm helloMsg
	if err := s.in.decode(body, &hm); err != nil {
		return err
	}
	if err := checkCircuit(&hm); err != nil {
		return err
	}
	circ := qsim.NewCircuitFromSpec(hm.Name, hm.NumQubits, hm.Layers, hm.Gates, hm.NumParams, hm.Reupload, hm.LayerStarts)
	runner, err := qsim.NewShardRunner(circ, maxWorkerTableBytes)
	if err != nil {
		return fmt.Errorf("refusing circuit: %w", err)
	}
	if got := runner.Digest(); got != hm.Digest {
		return fmt.Errorf("compiled program digest mismatch: worker %+v, coordinator %+v", got, hm.Digest)
	}
	s.runner = runner
	return s.send(s.out.encode(fHelloAck, &helloAckMsg{Digest: hm.Digest}))
}

// shardBatch serves one request: decode into session scratch, run every
// shard through runShard, answer with one fResultBatch. The whole exchange
// reuses session buffers and the arena (the previous request's decoded
// arrays are dead once its reply flushed), so the steady-state data path
// allocates nothing. An error on any shard fails the whole request — the
// coordinator re-dispatches it as a unit.
//
// A request whose pass id differs from the last one starts a new pass, and
// a forward one supersedes the kept shard states. A request for the same
// pass is a re-dispatch round, which keeps them: a kept state is used only
// when its inputs match the shard's bit for bit.
func (s *session) shardBatch(body []byte) error {
	s.in.arena.reset()
	b := &s.batch
	if err := s.in.decode(body, b); err != nil {
		return err
	}
	if len(b.Shards) == 0 {
		return errors.New("empty shard batch")
	}
	if s.runner == nil {
		return errors.New("shard before handshake")
	}
	if b.Pass != s.pass && !b.Backward {
		s.runner.BeginForwardPass()
	}
	s.pass = b.Pass
	// Per-shard spans, gated on the coordinator's trace context rather than
	// this process's own TORQ_TRACE: a traced coordinator traces its whole
	// fleet. Each span parents under the exchange's batch span and rides the
	// reply's span section back for coordinator-side stitching.
	traced := b.Trace != 0
	s.spans = s.spans[:0]
	// Each entry is encoded right after its shard runs — the runner's
	// result arrays alias workspace buffers the next shard will overwrite.
	reply := resultBatch{Pass: b.Pass, Backward: b.Backward}
	s.out.begin(fResultBatch)
	reply.head(&s.out, len(b.Shards))
	for i := range b.Shards {
		sm := &b.Shards[i]
		var rm resultMsg
		var sp trace.Span
		if traced {
			sp = trace.BeginForced(trace.KShard, b.Span)
			sp.Shard = int32(sm.Shard)
		}
		if err := s.runShard(sm, &rm); err != nil {
			return err
		}
		if traced {
			s.spans = append(s.spans, sp.Finish())
		}
		walkResult(&s.out, &rm)
	}
	reply.Spans = s.spans
	reply.tail(&s.out)
	return s.send(s.out.finish())
}

// runShard validates and executes one shard assignment, filling rm.
func (s *session) runShard(sm *shardMsg, rm *resultMsg) error {
	if s.failAfter > 0 && s.served >= s.failAfter {
		os.Exit(3)
	}
	if s.stall > 0 {
		time.Sleep(s.stall)
	}
	s.served++
	b := &s.batch

	nq := s.runner.Circuit().NumQubits
	if np := s.runner.Circuit().NumParams; len(b.Theta) != np {
		return fmt.Errorf("pass theta has %d values, circuit has %d parameters", len(b.Theta), np)
	}
	if nq <= 0 || len(sm.Angles)%nq != 0 || len(sm.Angles) == 0 {
		return fmt.Errorf("shard angles length %d not a multiple of nq=%d", len(sm.Angles), nq)
	}
	n := len(sm.Angles) / nq
	if max := s.runner.MaxShard(b.Active); n > max {
		return fmt.Errorf("shard of %d samples exceeds the %d-sample block", n, max)
	}
	// Every optional row array must match the shard's sample count (and the
	// active-channel mask), else the kernels would index out of range; a
	// mismatched coordinator gets an error frame, not a worker panic.
	checkRows := func(name string, k int, rows []float64, wantPresent bool) error {
		if !wantPresent {
			if rows != nil {
				return fmt.Errorf("shard %s[%d] present for inactive channel", name, k)
			}
			return nil
		}
		if rows != nil && len(rows) != n*nq {
			return fmt.Errorf("shard %s[%d] has %d values, want %d", name, k, len(rows), n*nq)
		}
		return nil
	}
	for k := 0; k < qsim.MaxTangents; k++ {
		if err := checkRows("angleTans", k, sm.AngleTans[k], b.Active[k]); err != nil {
			return err
		}
		if b.Active[k] && sm.AngleTans[k] == nil {
			return fmt.Errorf("shard angleTans[%d] missing for active channel", k)
		}
		if err := checkRows("gzTans", k, sm.GZTans[k], b.Active[k] && b.Backward); err != nil {
			return err
		}
	}
	if sm.GZ != nil && len(sm.GZ) != n*nq {
		return fmt.Errorf("shard gz has %d values, want %d", len(sm.GZ), n*nq)
	}
	rm.Shard = sm.Shard
	switch {
	case b.Backward:
		var cached bool
		rm.DAngles, rm.DAngleTans, rm.DTheta, rm.DiagT, cached = s.runner.BackwardShard(sm.Shard, n, b.Active, sm.Angles, sm.AngleTans, b.Theta, sm.GZ, sm.GZTans)
		if s.requireCached && !cached {
			return fmt.Errorf("backward shard %d missed the forward-state cache", sm.Shard)
		}
	default:
		rm.Z, rm.ZTans = s.runner.ForwardShard(sm.Shard, n, b.Active, sm.Angles, sm.AngleTans, b.Theta)
	}
	return nil
}
