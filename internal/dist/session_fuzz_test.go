package dist

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/qsim"
)

// Session streams for the worker side of the protocol: a byte stream of
// frames exactly as ServeConn reads it from a coordinator.

// helloFor is the handshake payload for circ under digest.
func helloFor(circ *qsim.Circuit, digest qsim.ProgramDigest) []byte {
	return frameBody(encode(fHello, &helloMsg{
		Name: circ.Name, NumQubits: circ.NumQubits,
		Layers: circ.Layers, NumParams: circ.NumParams, Gates: circ.Gates,
		LayerStarts: circ.LayerStarts(), Digest: digest,
	}))
}

// diagHeavyHello is a 1.7 KB handshake that passes checkCircuit: 16 repeats
// of CRZ(0→1), CRZ(2→3), RX(1), RX(3) at 20 qubits. The RX gates flip bits
// the next CRZs read, so no two repeats commute into one group, and it
// fuses into 16 full-register diagonals, 436 MB of tables: the worker must
// refuse it before laying any of them out.
func diagHeavyHello() []byte {
	var gates []qsim.Gate
	for i := 0; i < 16; i++ {
		gates = append(gates,
			qsim.Gate{Kind: qsim.CRZ, Q: 1, C: 0, P: 4 * i},
			qsim.Gate{Kind: qsim.CRZ, Q: 3, C: 2, P: 4*i + 1},
			qsim.Gate{Kind: qsim.RX, Q: 1, C: -1, P: 4*i + 2},
			qsim.Gate{Kind: qsim.RX, Q: 3, C: -1, P: 4*i + 3})
	}
	return frameBody(encode(fHello, &helloMsg{Name: "diag", NumQubits: 20, Layers: 1, NumParams: 64, Gates: gates}))
}

// wideShard is a valid 16-qubit handshake, then a forward request of one
// shard of 64 samples (8 KB of angles). The coordinator partitions 16-qubit
// passes into 1-sample shards; sizing a workspace for 64 would take 256 MB.
func wideShard() (hello, shard []byte) {
	circ := qsim.NoEntanglement.Build(16, 1)
	hello = helloFor(circ, qsim.CompileProgram(circ).Digest())
	shard = encode(fShardBatch, &shardBatch{Pass: 1, Theta: make([]float64, circ.NumParams),
		Shards: []shardMsg{{Angles: make([]float64, 64*16)}}})
	return hello, shard
}

// shortThetaSession is a valid StronglyEntangling 4-qubit/2-layer handshake,
// then a request of one shard whose theta holds 1 value instead of 24.
func shortThetaSession() []byte {
	circ := qsim.StronglyEntangling.Build(4, 2)
	return slices.Concat(
		frame(fHello, helloFor(circ, qsim.CompileProgram(circ).Digest())),
		encode(fShardBatch, &shardBatch{Pass: 1, Theta: []float64{0.5}, Shards: []shardMsg{{Angles: make([]float64, 4)}}}))
}

// FuzzServeConn feeds ServeConn arbitrary frame streams. It is seeded with
// real sessions built by the encoder (a forward and a traced backward pass
// over a 1-qubit, 2-parameter circuit, the backward request sent again as
// a re-dispatch round) and the three streams
// that used to panic the worker or make it allocate hundreds of megabytes.
// A session must end, with or without an error, and never panic.
func FuzzServeConn(f *testing.F) {
	circ := qsim.NewCircuitFromSpec("fuzz", 1, 1,
		[]qsim.Gate{{Kind: qsim.RY, Q: 0, C: -1, P: 0}, {Kind: qsim.RZ, Q: 0, C: -1, P: 1}}, 2, false, nil)
	hello := helloFor(circ, qsim.CompileProgram(circ).Digest())
	fwd := encode(fShardBatch, &shardBatch{Pass: 2, Theta: []float64{1, -0.5}, Shards: []shardMsg{
		{Shard: 1, Angles: []float64{0.25}},
		{Shard: 3, Angles: []float64{0.75}},
	}})
	bwd := encode(fShardBatch, &shardBatch{
		Pass: 3, Trace: 0x2122232425262728, Span: 0x4142434445464748,
		Backward: true, Theta: []float64{1, -0.5},
		Shards: []shardMsg{
			{Shard: 1, Angles: []float64{0.25}, GZ: []float64{1}},
			{Shard: 3, Angles: []float64{0.75}, GZ: []float64{-2}},
		}})
	fwdSession := slices.Concat(frame(fHello, hello), fwd)
	f.Add(fwdSession)
	f.Add(slices.Concat(fwdSession, bwd, bwd))
	f.Add(frame(fHello, diagHeavyHello()))
	wh, ws := wideShard()
	f.Add(slices.Concat(frame(fHello, wh), ws))
	f.Add(shortThetaSession())
	f.Fuzz(func(t *testing.T, data []byte) {
		// One legitimate sample at the worker's 24-qubit bound needs
		// gigabytes of state; keep the fuzzer's sessions within 20 qubits.
		r := bytes.NewReader(data)
		for {
			typ, body, err := readFrame(r)
			if err != nil {
				break
			}
			if typ != fHello {
				continue
			}
			var hm helloMsg
			if err := new(wire).decode(body, &hm); err == nil && hm.NumQubits > 20 {
				return
			}
		}
		var out bytes.Buffer
		ServeConn(bytes.NewReader(data), &out) //nolint:errcheck // a broken stream may end in an error
		// Every reply is a whole frame of a type the worker sends.
		for out.Len() > 0 {
			typ, _, err := readFrame(&out)
			if err != nil {
				t.Fatalf("worker wrote a broken reply stream: %v", err)
			}
			if typ != fHelloAck && typ != fResultBatch && typ != fError {
				t.Fatalf("worker replied with frame type %d", typ)
			}
		}
	})
}
