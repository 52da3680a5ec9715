package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/opt"
)

// checkpointVersion is the current serialization version. Version 1 streams
// (parameters only) predate the field and decode with Version == 0; version
// 2 adds the optimizer and curriculum state, so a restored model warm-starts
// instead of silently resetting Adam moments, the step count, and the
// time-curriculum weights.
const checkpointVersion = 2

// checkpoint is the serialized form of a trained model: the configuration
// (architecture is reconstructed from it), every parameter buffer by name,
// and — since version 2 — the training state a warm restart needs. The fixed
// RFF projection is regenerated from the seed, so the config seed fully
// determines the non-trainable state. gob decodes by field name, so version-1
// streams simply leave the newer fields zero and still load.
type checkpoint struct {
	Cfg    ModelConfig
	Params map[string][]float64

	Version    int
	OptM, OptV map[string][]float64 // Adam moments keyed like Params
	OptStep    int
	Curriculum []float64
	Epochs     int
}

// Save writes the model's configuration, parameters, and (when the model has
// been trained) its warm-restart training state.
func (m *Model) Save(w io.Writer) error {
	ck := checkpoint{
		Cfg:     m.Cfg,
		Params:  make(map[string][]float64, len(m.Reg.Params)),
		Version: checkpointVersion,
	}
	for _, p := range m.Reg.Params {
		ck.Params[p.Name] = append([]float64(nil), p.W...)
	}
	if st := m.TrainState; st != nil && len(st.Opt.M) == len(m.Reg.Params) {
		ck.OptM = make(map[string][]float64, len(m.Reg.Params))
		ck.OptV = make(map[string][]float64, len(m.Reg.Params))
		for i, p := range m.Reg.Params {
			ck.OptM[p.Name] = append([]float64(nil), st.Opt.M[i]...)
			ck.OptV[p.Name] = append([]float64(nil), st.Opt.V[i]...)
		}
		ck.OptStep = st.Opt.Step
		ck.Curriculum = append([]float64(nil), st.Curriculum...)
		ck.Epochs = st.Epochs
	}
	return gob.NewEncoder(w).Encode(ck)
}

// SaveFile writes a checkpoint to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Save(f)
}

// Load reconstructs a model from a checkpoint: the architecture is rebuilt
// from the stored configuration once ModelConfig.Validate accepts it,
// parameters are restored by name, and a
// version-2 checkpoint's training state is reattached so TrainModel resumes
// the optimizer rather than cold-starting it. Version-1 checkpoints load
// with TrainState nil.
func Load(r io.Reader) (*Model, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, err
	}
	if ck.Version > checkpointVersion {
		// A future format could keep its state in fields this version does
		// not know about; loading it "successfully" would silently cold-start
		// the optimizer — the exact state loss version 2 exists to prevent.
		return nil, fmt.Errorf("core: checkpoint version %d is newer than supported version %d", ck.Version, checkpointVersion)
	}
	if err := ck.Cfg.Validate(); err != nil {
		return nil, err
	}
	m := NewModel(ck.Cfg)
	for _, p := range m.Reg.Params {
		saved, ok := ck.Params[p.Name]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint missing parameter %q", p.Name)
		}
		if len(saved) != len(p.W) {
			return nil, fmt.Errorf("core: parameter %q has %d values, model expects %d",
				p.Name, len(saved), len(p.W))
		}
		copy(p.W, saved)
	}
	if ck.OptM != nil {
		st := &TrainState{
			Opt:        opt.AdamState{Step: ck.OptStep},
			Curriculum: ck.Curriculum,
			Epochs:     ck.Epochs,
		}
		for _, p := range m.Reg.Params {
			mBuf, okM := ck.OptM[p.Name]
			vBuf, okV := ck.OptV[p.Name]
			if !okM || !okV {
				return nil, fmt.Errorf("core: checkpoint missing optimizer state for %q", p.Name)
			}
			if len(mBuf) != len(p.W) || len(vBuf) != len(p.W) {
				return nil, fmt.Errorf("core: optimizer state for %q has %d/%d values, model expects %d",
					p.Name, len(mBuf), len(vBuf), len(p.W))
			}
			st.Opt.M = append(st.Opt.M, mBuf)
			st.Opt.V = append(st.Opt.V, vBuf)
		}
		m.TrainState = st
	}
	return m, nil
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
