package dist

import (
	"bytes"
	"testing"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// replySpec is the fixed pass the fuzzed result batches are checked
// against: 5 samples over a 2-qubit, 1-layer Cross-Mesh circuit (whose
// compiled program holds a full-register diagonal, so backward results
// carry diagT) in shards of 2, with tangent channels 0 and 2 live.
func replySpec() *qsim.PassSpec {
	circ := qsim.CrossMesh.Build(2, 1)
	return &qsim.PassSpec{
		Circ: circ, Prog: qsim.CompileProgram(circ),
		N: 5, NQ: 2, Block: 2, Active: [qsim.MaxTangents]bool{true, false, true},
	}
}

// replyResults builds one well-shaped result per shard of spec in the given
// direction, so the seed batches pass validateResult.
func replyResults(spec *qsim.PassSpec, backward bool) resultBatch {
	out := resultBatch{Pass: 7, Backward: backward}
	for s := 0; s < spec.NumShards(); s++ {
		lo, hi := spec.Shard(s)
		rows := make([]float64, (hi-lo)*spec.NQ)
		for i := range rows {
			rows[i] = float64(s) + 0.125*float64(i)
		}
		rm := resultMsg{Shard: uint32(s)}
		if backward {
			rm.DAngles = rows
			rm.DTheta = make([]float64, spec.Circ.NumParams)
			rm.DiagT = make([]float64, spec.Prog.NumDiagAccums()<<spec.NQ)
		} else {
			rm.Z = rows
		}
		for k := 0; k < qsim.MaxTangents; k++ {
			if !spec.Active[k] {
				continue
			}
			if backward {
				rm.DAngleTans[k] = rows
			} else {
				rm.ZTans[k] = rows
			}
		}
		out.Results = append(out.Results, rm)
	}
	return out
}

// FuzzCoordinatorReplies feeds arbitrary reply payloads to the decodes the
// coordinator runs on worker replies — hello_ack, result_batch and error —
// and every decoded result to validateResult against a fixed pass. It is
// seeded with real encoded hello_ack, result_batch (a forward and a traced
// backward batch) and error payloads. Each decode must end in an error or
// a value that re-encodes to a payload decoding to the same value; nothing
// may panic; and the decoded arrays, entries, spans and the arena that
// backs them must stay within what the payload's bytes can hold.
func FuzzCoordinatorReplies(f *testing.F) {
	spec := replySpec()
	f.Add(frameBody(encode(fHelloAck, &helloAckMsg{Digest: spec.Prog.Digest()})))
	fwd := replyResults(spec, false)
	f.Add(frameBody(encode(fResultBatch, &fwd)))
	bwd := replyResults(spec, true)
	bwd.Spans = []trace.SpanRec{{ID: 3, Parent: 2, Kind: trace.KShard, Shard: 1, Start: 10, End: 20}}
	f.Add(frameBody(encode(fResultBatch, &bwd)))
	f.Add(frameBody(encode(fError, &errorMsg{Msg: "qsim: theta 1 ≠ 24"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ack, ackAgain helloAckMsg
		if err := new(wire).decode(data, &ack); err == nil {
			err := new(wire).decode(frameBody(encode(fHelloAck, &ack)), &ackAgain)
			if err != nil || ackAgain != ack {
				t.Fatalf("hello_ack %+v re-decodes as %+v (%v)", ack, ackAgain, err)
			}
		}
		var em, emAgain errorMsg
		if err := new(wire).decode(data, &em); err == nil {
			if len(em.Msg) > len(data) {
				t.Fatalf("error message of %d bytes from a %d-byte payload", len(em.Msg), len(data))
			}
			if err := new(wire).decode(frameBody(encode(fError, &em)), &emAgain); err != nil || emAgain != em {
				t.Fatalf("error %q re-decodes as %q (%v)", em.Msg, emAgain.Msg, err)
			}
		}

		var in wire
		var rb resultBatch
		if err := in.decode(data, &rb); err != nil {
			return
		}
		floats := 0
		for i := range rb.Results {
			rm := &rb.Results[i]
			floats += len(rm.Z) + len(rm.DAngles) + len(rm.DTheta) + len(rm.DiagT)
			for k := 0; k < qsim.MaxTangents; k++ {
				floats += len(rm.ZTans[k]) + len(rm.DAngleTans[k])
			}
		}
		if 8*floats+minResultSize*len(rb.Results)+spanSize*len(rb.Spans) > len(data) {
			t.Fatalf("%d floats, %d results and %d spans decoded from %d bytes", floats, len(rb.Results), len(rb.Spans), len(data))
		}
		if limit := max(1<<12, 2*len(data)/8); len(in.arena.buf) > limit {
			t.Fatalf("arena grew to %d floats for a %d-byte payload", len(in.arena.buf), len(data))
		}
		body := frameBody(encode(fResultBatch, &rb))
		var again resultBatch
		if err := new(wire).decode(body, &again); err != nil {
			t.Fatalf("re-encoded result batch does not decode: %v", err)
		}
		if !bytes.Equal(frameBody(encode(fResultBatch, &again)), body) {
			t.Fatal("result batch does not survive a re-encode")
		}

		pass := *spec
		pass.Backward = rb.Backward
		for _, rm := range rb.Results {
			s := int(rm.Shard)
			if s >= pass.NumShards() {
				continue // the coordinator rejects an unassigned shard first
			}
			var out qsim.ShardResult
			if err := validateResult(&pass, s, rm, &out); err != nil {
				continue
			}
			lo, hi := pass.Shard(s)
			rows := (hi - lo) * pass.NQ
			if pass.Backward && (len(out.DAngles) != rows || len(out.DTheta) != pass.Circ.NumParams) ||
				!pass.Backward && len(out.Z) != rows {
				t.Fatalf("shard %d (backward=%v) accepted with misshaped arrays", s, pass.Backward)
			}
		}
	})
}
