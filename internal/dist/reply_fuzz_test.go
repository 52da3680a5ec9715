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
func replyResults(spec *qsim.PassSpec, backward bool) []resultMsg {
	var out []resultMsg
	for s := 0; s < spec.NumShards(); s++ {
		lo, hi := spec.Shard(s)
		rows := make([]float64, (hi-lo)*spec.NQ)
		for i := range rows {
			rows[i] = float64(s) + 0.125*float64(i)
		}
		rm := resultMsg{Pass: 7, Shard: uint32(s), Backward: backward}
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
		out = append(out, rm)
	}
	return out
}

// FuzzCoordinatorReplies feeds arbitrary reply payloads to the decoders the
// coordinator runs on worker replies — decodeHelloAck, decodeResultBatchInto
// and decodeError — and every decoded result to validateResult against a
// fixed pass. It is seeded with real encoded hello_ack, result_batch (a
// forward and a traced backward batch) and error payloads. Each decode must
// end in an error or a value that re-encodes to a payload decoding to the
// same value; nothing may panic; and the decoded arrays, entries, spans and
// the arena that backs them must stay within what the payload's bytes can
// hold.
func FuzzCoordinatorReplies(f *testing.F) {
	spec := replySpec()
	f.Add(encodeHelloAck(helloAckMsg{Version: ProtoVersion, Digest: spec.Prog.Digest()}))
	f.Add(frameBody(encodeResultBatchFrame(nil, 7, false, replyResults(spec, false), nil)))
	spans := []trace.SpanRec{{ID: 3, Parent: 2, Kind: trace.KShard, Shard: 1, Start: 10, End: 20}}
	f.Add(frameBody(encodeResultBatchFrame(nil, 7, true, replyResults(spec, true), spans)))
	f.Add(encodeError(errorMsg{Msg: "qsim: theta 1 ≠ 24"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ack, err := decodeHelloAck(data); err == nil {
			again, err := decodeHelloAck(encodeHelloAck(ack))
			if err != nil || again != ack {
				t.Fatalf("hello_ack %+v re-decodes as %+v (%v)", ack, again, err)
			}
		}
		if em, err := decodeError(data); err == nil {
			if len(em.Msg) > len(data) {
				t.Fatalf("error message of %d bytes from a %d-byte payload", len(em.Msg), len(data))
			}
			if again, err := decodeError(encodeError(em)); err != nil || again != em {
				t.Fatalf("error %q re-decodes as %q (%v)", em.Msg, again.Msg, err)
			}
		}

		var arena f64Arena
		rms, sps, err := decodeResultBatchInto(data, &arena, nil, nil)
		if err != nil {
			return
		}
		floats := 0
		for i := range rms {
			rm := &rms[i]
			floats += len(rm.Z) + len(rm.DAngles) + len(rm.DTheta) + len(rm.DiagT)
			for k := 0; k < qsim.MaxTangents; k++ {
				floats += len(rm.ZTans[k]) + len(rm.DAngleTans[k])
			}
		}
		if 8*floats+minResultSize*len(rms)+spanSize*len(sps) > len(data) {
			t.Fatalf("%d floats, %d results and %d spans decoded from %d bytes", floats, len(rms), len(sps), len(data))
		}
		if limit := max(1<<12, 2*len(data)/8); len(arena.buf) > limit {
			t.Fatalf("arena grew to %d floats for a %d-byte payload", len(arena.buf), len(data))
		}
		if len(rms) > 0 {
			body := frameBody(encodeResultBatchFrame(nil, rms[0].Pass, rms[0].Backward, rms, sps))
			again, againSp, err := decodeResultBatchInto(body, nil, nil, nil)
			if err != nil {
				t.Fatalf("re-encoded result batch does not decode: %v", err)
			}
			if !bytes.Equal(frameBody(encodeResultBatchFrame(nil, again[0].Pass, again[0].Backward, again, againSp)), body) {
				t.Fatal("result batch does not survive a re-encode")
			}
		}

		for _, rm := range rms {
			s := int(rm.Shard)
			if s >= spec.NumShards() {
				continue // the coordinator rejects an unassigned shard first
			}
			pass := *spec
			pass.Backward = rm.Backward
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
