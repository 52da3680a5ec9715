package main

import (
	"math"
	"testing"
)

func TestRefCost(t *testing.T) {
	m := map[string]float64{"A": 4, "B": 9, "Zero": 0}
	for _, tc := range []struct {
		refs []string
		want float64
		ok   bool
	}{
		{[]string{"A"}, 4, true},
		{[]string{"A", "B"}, 6, true},
		{[]string{"A", "Missing"}, 0, false},
		{[]string{"A", "Zero"}, 0, false},
	} {
		got, ok := refCost(m, tc.refs)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("refCost(%v) = %v, %v; want %v, %v", tc.refs, got, ok, tc.want, tc.ok)
		}
	}
}
