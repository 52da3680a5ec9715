package main

import (
	"strings"
	"testing"
)

// TestGate runs the gate on synthetic `go test -bench` outputs: parsed the
// way the command parses its two files, then compared.
func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change string
		tol            float64
		require        []string
		wantErr        bool
		wantPass       bool
		wantOut        string
	}{
		{
			name: "minimum over repeated lines and sessions",
			parent: "goos: linux\nBenchmarkA \t3\t 120 ns/op\nBenchmarkA \t3\t 100 ns/op\t 512 points/op\nPASS\n" +
				"goos: linux\nBenchmarkA-2 \t3\t 110.5 ns/op\nPASS\n",
			change:   "BenchmarkA \t3\t 190 ns/op\nPASS\nBenchmarkA \t3\t 124 ns/op\nBenchmarkA \t3\t 180 ns/op\n",
			tol:      0.25,
			wantPass: true,
			wantOut:  "1.240x ok",
		},
		{
			name:     "ratio of exactly 1+tol passes",
			parent:   "BenchmarkA 3 100 ns/op\n",
			change:   "BenchmarkA 3 125 ns/op\n",
			tol:      0.25,
			wantPass: true,
			wantOut:  "1.250x ok",
		},
		{
			name:    "ratio just above 1+tol fails",
			parent:  "BenchmarkA 3 100 ns/op\n",
			change:  "BenchmarkA 3 125.001 ns/op\n",
			tol:     0.25,
			wantOut: "REGRESSION",
		},
		{
			name:    "parent row missing from the change fails",
			parent:  "BenchmarkA 3 100 ns/op\nBenchmarkB 3 100 ns/op\n",
			change:  "BenchmarkA 3 100 ns/op\n",
			tol:     0.25,
			wantOut: "-        - MISSING from change",
		},
		{
			name:     "a row only the change measured is new",
			parent:   "BenchmarkA 3 100 ns/op\n",
			change:   "BenchmarkA 3 100 ns/op\nBenchmarkB 3 900 ns/op\n",
			tol:      0.25,
			wantPass: true,
			wantOut:  "900        - new",
		},
		{
			name:    "required name with no change row fails",
			parent:  "BenchmarkTorqEpochSharded 3 100 ns/op\n",
			change:  "BenchmarkTorqEpochSharded 3 100 ns/op\n",
			tol:     0.25,
			require: []string{"Sharded", "DistSerial"},
			wantOut: `required "DistSerial": no row of the change matches`,
		},
		{
			name:     "required row the parent lacks is new",
			parent:   "BenchmarkTorqEpochSharded 3 100 ns/op\n",
			change:   "BenchmarkTorqEpochSharded 3 100 ns/op\nBenchmarkTorqEpochDistSerial 3 100 ns/op\n",
			tol:      0.25,
			require:  []string{"Sharded", "DistSerial"},
			wantPass: true,
			wantOut:  `required "DistSerial": new, no row of the parent matches`,
		},
		{
			name:    "empty parent output fails",
			parent:  "PASS\n",
			change:  "BenchmarkA 3 100 ns/op\n",
			tol:     0.25,
			wantOut: "holds no benchmark rows",
		},
		{name: "malformed ns/op is an error", parent: "BenchmarkA 3 12.3.4 ns/op\n", change: "BenchmarkA 3 100 ns/op\n", wantErr: true},
		{name: "non-numeric ns/op is an error", parent: "BenchmarkA 3 100 ns/op\n", change: "BenchmarkA 3 fast ns/op\n", wantErr: true},
		{name: "zero ns/op is an error", parent: "BenchmarkA 3 0 ns/op\n", change: "BenchmarkA 3 100 ns/op\n", wantErr: true},
		{name: "NaN ns/op is an error", parent: "BenchmarkA 3 NaN ns/op\n", change: "BenchmarkA 3 100 ns/op\n", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, errP := parseBench(tc.parent)
			change, errC := parseBench(tc.change)
			if gotErr := errP != nil || errC != nil; gotErr != tc.wantErr {
				t.Fatalf("parse errors %v, %v; want an error: %v", errP, errC, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			var out strings.Builder
			if pass := gate(&out, parent, change, tc.tol, tc.require); pass != tc.wantPass {
				t.Errorf("gate passed = %v, want %v; output:\n%s", pass, tc.wantPass, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}
