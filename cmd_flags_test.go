package repro

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandFlagErrors builds qpinn-train, qpinn-bench and maxwell-ref once
// and runs each on flags (and environment) it must refuse. Every refusal
// must exit 2 with no Go panic on stderr (a panic exits 2 too), and a
// two-epoch qpinn-train run must succeed. The refusals cover:
//
//   - qpinn-train: an unknown -ansatz, -arch or -case; a model config
//     core.ModelConfig.Validate refuses (-qubits 0 or 40, -hidden 0,
//     -rff -1, -qlayers 0); the retired -engine legacy, a -grid below 2 (0 and -1 panicked, 1
//     trained on NaN) and an -epochs below 1 (0 and -1 printed an infinite
//     or negative time per epoch);
//   - qpinn-bench: a misspelt -preset, which must not run at smoke scale,
//     a negative -epochs or -seeds, which used to run the preset's
//     default (25 000 epochs at the paper preset), and a -dist-workers
//     outside [0, dist.MaxWorkers] (100000 was accepted, and a dist pass
//     would have spawned that many processes; -1 silently meant the
//     default). These run on the default sharded engine, so a refusal
//     that breaks shows as exit 0 without starting a worker;
//   - both training commands under -engine dist: a TORQ_DIST_WORKERS that is
//     not a worker count, refused before the first pass (it panicked inside
//     that pass);
//   - maxwell-ref: a -grid the reference solvers cannot run, refused before
//     any solver starts (-grid 0 panicked in the spectral and Padé solvers
//     or wrote NaN energies in FDTD, and -grid 100 panicked in the spectral
//     solver's FFT, which needs a power of two).
func TestCommandFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping command builds")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"qpinn-train", "qpinn-bench", "maxwell-ref"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	cases := []struct {
		env  string // one VAR=value added to the command's environment
		args string
		code int
	}{
		{"", "qpinn-train -epochs 2", 0},
		{"", "qpinn-train -epochs 2 -ansatz bogus", 2},
		{"", "qpinn-train -epochs 2 -qubits 0", 2},
		{"", "qpinn-train -epochs 2 -qubits 40", 2},
		{"", "qpinn-train -epochs 2 -hidden 0", 2},
		{"", "qpinn-train -epochs 2 -rff -1", 2},
		{"", "qpinn-train -epochs 2 -qlayers 0", 2},
		{"", "qpinn-train -epochs 2 -arch bogus", 2},
		{"", "qpinn-train -epochs 2 -case bogus", 2},
		{"", "qpinn-train -epochs 2 -engine legacy", 2},
		{"", "qpinn-train -epochs 2 -grid 0", 2},
		{"", "qpinn-train -epochs 2 -grid -1", 2},
		{"", "qpinn-train -epochs 2 -grid 1", 2},
		{"", "qpinn-train -epochs 2 -epochs 0", 2},
		{"", "qpinn-train -epochs 2 -epochs -1", 2},
		{"", "qpinn-bench -exp table1 -preset papr", 2},
		{"", "qpinn-bench -exp table1 -epochs -1", 2},
		{"", "qpinn-bench -exp table1 -seeds -1", 2},
		{"", "qpinn-bench -exp table1 -dist-workers 65", 2},
		{"", "qpinn-bench -exp table1 -dist-workers 100000", 2},
		{"", "qpinn-bench -exp table1 -dist-workers -1", 2},
		{"", "maxwell-ref -grid 0", 2},
		{"", "maxwell-ref -grid 100", 2},
		{"", "maxwell-ref -solver fdtd -grid 0", 2},
		{"TORQ_DIST_WORKERS=abc", "qpinn-train -engine dist -epochs 1 -grid 2", 2},
		{"TORQ_DIST_WORKERS=abc", "qpinn-bench -exp table2 -engine dist", 2},
	}
	for _, c := range cases {
		t.Run(strings.TrimSpace(c.env+" "+c.args), func(t *testing.T) {
			args := strings.Fields(c.args)
			cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
			cmd.Dir = t.TempDir()
			if c.env != "" {
				cmd.Env = append(os.Environ(), c.env)
			}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != c.code || strings.Contains(stderr.String(), "panic:") {
				t.Errorf("exit status %d, want %d without a panic; stderr:\n%s", code, c.code, stderr.String())
			}
		})
	}
}
