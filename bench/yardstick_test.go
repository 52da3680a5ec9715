package main

import "testing"

// TestYardstickAllocatesNothing: a yardstick run that allocated would make
// the garbage collector's work depend on the program's heap, and the
// program's GC cost would leak into the yardstick that normalizes it.
func TestYardstickAllocatesNothing(t *testing.T) {
	y := newYardstick()
	if n := testing.AllocsPerRun(3, y.run); n != 0 {
		t.Fatalf("yardstick run allocates %v objects, want 0", n)
	}
}
