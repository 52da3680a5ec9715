package qsim

import (
	"fmt"
	"math"
)

// GateKind enumerates the elementary gates used by the paper's ansätze.
type GateKind uint8

const (
	RX GateKind = iota
	RY
	RZ
	CNOT
	CRZ
)

func (k GateKind) String() string {
	switch k {
	case RX:
		return "RX"
	case RY:
		return "RY"
	case RZ:
		return "RZ"
	case CNOT:
		return "CNOT"
	case CRZ:
		return "CRZ"
	}
	return "?"
}

// Gate is one circuit element. Q is the target qubit; C the control (−1 for
// single-qubit gates); P the trainable-parameter index (−1 for CNOT).
type Gate struct {
	Kind GateKind
	Q    int
	C    int
	P    int
}

// Circuit is an ansatz: a gate sequence over NumQubits qubits with NumParams
// trainable rotation angles. The data-encoding layer (one RX per qubit whose
// angle is a scaled network activation) is applied before Gates by the
// runner and is not part of the sequence.
type Circuit struct {
	Name      string
	NumQubits int
	Layers    int
	Gates     []Gate
	NumParams int
	// Reupload enables the data re-uploading extension (§6.2(c)): the angle
	// embedding repeats before every ansatz layer instead of running once.
	Reupload bool
	// layerBounds[l] is the index in Gates where layer l begins.
	layerBounds []int
}

// LayerStarts returns a copy of the per-layer start indices into Gates —
// the only unexported piece of circuit structure, exposed so a circuit can
// be serialized to a worker process and reconstructed with
// NewCircuitFromSpec.
func (c *Circuit) LayerStarts() []int {
	return append([]int(nil), c.layerBounds...)
}

// NewCircuitFromSpec reconstructs a circuit from its serialized fields (see
// LayerStarts). The result compiles to the identical program as the
// original: CompileProgram depends only on the fields restored here.
func NewCircuitFromSpec(name string, numQubits, layers int, gates []Gate, numParams int, reupload bool, layerStarts []int) *Circuit {
	return &Circuit{
		Name:        name,
		NumQubits:   numQubits,
		Layers:      layers,
		Gates:       gates,
		NumParams:   numParams,
		Reupload:    reupload,
		layerBounds: layerStarts,
	}
}

// LayerSlice returns the gates of ansatz layer l.
func (c *Circuit) LayerSlice(l int) []Gate {
	start := c.layerBounds[l]
	end := len(c.Gates)
	if l+1 < len(c.layerBounds) {
		end = c.layerBounds[l+1]
	}
	return c.Gates[start:end]
}

// segments splits the ansatz gates at the points where the angle embedding
// runs: one segment per layer under data re-uploading, otherwise the whole
// sequence behind a single embedding. Every execution path walks the
// circuit segment by segment, embedding before each.
func (c *Circuit) segments() [][]Gate {
	if !c.Reupload || c.Layers <= 0 {
		return [][]Gate{c.Gates}
	}
	segs := make([][]Gate, c.Layers)
	for l := range segs {
		segs[l] = c.LayerSlice(l)
	}
	return segs
}

// WithReupload returns a copy of the circuit with data re-uploading enabled.
func (c *Circuit) WithReupload() *Circuit {
	cp := *c
	cp.Name = c.Name + " (re-uploading)"
	cp.Reupload = true
	return &cp
}

// AnsatzKind selects one of the six ansätze of the paper's ablation (Fig. 4).
type AnsatzKind int

const (
	BasicEntangling AnsatzKind = iota
	StronglyEntangling
	CrossMesh
	CrossMesh2Rot
	CrossMeshCNOT
	NoEntanglement
)

// AllAnsatze lists the ablation order used in Figs. 6–9.
var AllAnsatze = []AnsatzKind{
	CrossMesh, CrossMesh2Rot, CrossMeshCNOT,
	NoEntanglement, BasicEntangling, StronglyEntangling,
}

// ansatzFlags holds each ansatz's -ansatz flag value, indexed by kind.
var ansatzFlags = [...]string{
	BasicEntangling: "basic", StronglyEntangling: "strongly", CrossMesh: "crossmesh",
	CrossMesh2Rot: "crossmesh2", CrossMeshCNOT: "crossmeshcnot", NoEntanglement: "noent",
}

func (a AnsatzKind) String() string {
	switch a {
	case BasicEntangling:
		return "Basic Entangling Layers"
	case StronglyEntangling:
		return "Strongly Entangling Layers"
	case CrossMesh:
		return "Cross-Mesh"
	case CrossMesh2Rot:
		return "Cross-Mesh-2-Rotations"
	case CrossMeshCNOT:
		return "Cross-Mesh-CNOT"
	case NoEntanglement:
		return "No Entanglement Ansatz"
	}
	return "unknown"
}

// Build constructs the ansatz circuit for nq qubits and the given number of
// layers. Parameter counts match the paper's Table 1 exactly for nq=7, L=4:
// 84 for the Rot-based ansätze, 196 for Cross-Mesh, 224 for
// Cross-Mesh-2-Rotations.
func (a AnsatzKind) Build(nq, layers int) *Circuit {
	c := &Circuit{Name: a.String(), NumQubits: nq, Layers: layers}
	p := 0
	rot := func(q int) {
		// Rot(α,β,γ) = RZ(γ)·RY(β)·RZ(α): applied as RZ(α) then RY(β) then RZ(γ).
		c.Gates = append(c.Gates,
			Gate{RZ, q, -1, p}, Gate{RY, q, -1, p + 1}, Gate{RZ, q, -1, p + 2})
		p += 3
	}
	for l := 0; l < layers; l++ {
		c.layerBounds = append(c.layerBounds, len(c.Gates))
		switch a {
		case BasicEntangling:
			for q := 0; q < nq; q++ {
				rot(q)
			}
			// Cyclic nearest-neighbour CNOT chain. On one qubit there is
			// no entangler, as in PennyLane's template on one wire.
			if nq > 1 {
				for q := 0; q < nq; q++ {
					c.Gates = append(c.Gates, Gate{CNOT, (q + 1) % nq, q, -1})
				}
			}
		case StronglyEntangling:
			for q := 0; q < nq; q++ {
				rot(q)
			}
			// Control-target gap grows with the layer index (PennyLane's
			// StronglyEntanglingLayers range pattern); none on one qubit.
			if nq > 1 {
				gap := l%(nq-1) + 1
				for q := 0; q < nq; q++ {
					c.Gates = append(c.Gates, Gate{CNOT, (q + gap) % nq, q, -1})
				}
			}
		case CrossMesh:
			for q := 0; q < nq; q++ {
				c.Gates = append(c.Gates, Gate{RX, q, -1, p})
				p++
			}
			for i := 0; i < nq; i++ {
				for j := 0; j < nq; j++ {
					if j == i {
						continue
					}
					c.Gates = append(c.Gates, Gate{CRZ, j, i, p})
					p++
				}
			}
		case CrossMesh2Rot:
			for q := 0; q < nq; q++ {
				c.Gates = append(c.Gates,
					Gate{RX, q, -1, p}, Gate{RZ, q, -1, p + 1})
				p += 2
			}
			for i := 0; i < nq; i++ {
				for j := 0; j < nq; j++ {
					if j == i {
						continue
					}
					c.Gates = append(c.Gates, Gate{CRZ, j, i, p})
					p++
				}
			}
		case CrossMeshCNOT:
			for q := 0; q < nq; q++ {
				rot(q)
			}
			for i := 0; i < nq; i++ {
				for j := 0; j < nq; j++ {
					if j == i {
						continue
					}
					c.Gates = append(c.Gates, Gate{CNOT, j, i, -1})
				}
			}
		case NoEntanglement:
			for q := 0; q < nq; q++ {
				rot(q)
			}
		default:
			panic(fmt.Sprintf("qsim: unknown ansatz %d", a))
		}
	}
	c.NumParams = p
	return c
}

// apply runs gate g (forward) on state s with parameters theta.
func (g Gate) apply(s *State, theta []float64) {
	switch g.Kind {
	case RX:
		t := theta[g.P]
		s.ApplyIX(g.Q, cosHalf(t), sinHalf(t))
	case RY:
		t := theta[g.P]
		s.ApplyY(g.Q, cosHalf(t), sinHalf(t))
	case RZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		s.ApplyDiag(g.Q, c, -sn, c, sn)
	case CNOT:
		s.ApplyCNOT(g.C, g.Q)
	case CRZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		s.ApplyCtrlDiag(g.C, g.Q, c, -sn, c, sn)
	}
}

// applyInverse runs g† on s (rotation with negated angle; CNOT self-inverse).
func (g Gate) applyInverse(s *State, theta []float64) {
	switch g.Kind {
	case RX:
		t := theta[g.P]
		s.ApplyIX(g.Q, cosHalf(t), -sinHalf(t))
	case RY:
		t := theta[g.P]
		s.ApplyY(g.Q, cosHalf(t), -sinHalf(t))
	case RZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		s.ApplyDiag(g.Q, c, sn, c, -sn)
	case CNOT:
		s.ApplyCNOT(g.C, g.Q)
	case CRZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		s.ApplyCtrlDiag(g.C, g.Q, c, sn, c, -sn)
	}
}

// applyDeriv runs dU/dθ on s (destructive; s becomes the derivative image).
// CNOT has no parameter; calling applyDeriv on it panics.
func (g Gate) applyDeriv(s *State, theta []float64) {
	switch g.Kind {
	case RX:
		t := theta[g.P]
		s.ApplyIX(g.Q, -sinHalf(t)/2, cosHalf(t)/2)
	case RY:
		t := theta[g.P]
		s.ApplyY(g.Q, -sinHalf(t)/2, cosHalf(t)/2)
	case RZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		// d/dθ diag(e^{−iθ/2}, e^{iθ/2}) = diag(−(s+ic)/2, (−s+ic)/2)
		s.ApplyDiag(g.Q, -sn/2, -c/2, -sn/2, c/2)
	case CRZ:
		t := theta[g.P]
		c, sn := cosHalf(t), sinHalf(t)
		s.ApplyCtrlDiag(g.C, g.Q, -sn/2, -c/2, -sn/2, c/2)
		s.ZeroOutDerivCtrl(g.C)
	default:
		panic("qsim: derivative of non-parametrized gate")
	}
}

func cosHalf(t float64) float64 { return math.Cos(t / 2) }
func sinHalf(t float64) float64 { return math.Sin(t / 2) }
