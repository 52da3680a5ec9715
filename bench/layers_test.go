package main

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestShardBusyUnion: busy sums every worker shard span, covered counts the
// time at least one worker was in a shard — the complement of dist.wait_ms.
func TestShardBusyUnion(t *testing.T) {
	shard := func(worker int32, start, end int64) trace.SpanRec {
		return trace.SpanRec{Kind: trace.KShard, Worker: worker, Start: start, End: end}
	}
	for _, c := range []struct {
		name          string
		spans         []trace.SpanRec
		busy, covered time.Duration
	}{
		{"none", nil, 0, 0},
		{"disjoint", []trace.SpanRec{shard(1, 0, 10), shard(1, 20, 25)}, 15, 15},
		{"overlapping workers", []trace.SpanRec{shard(2, 5, 15), shard(1, 0, 10)}, 20, 15},
		{"nested", []trace.SpanRec{shard(1, 0, 30), shard(2, 10, 20)}, 40, 30},
		{"ignores coordinator and non-shard spans", []trace.SpanRec{
			shard(0, 0, 100), {Kind: trace.KBatch, Worker: 1, Start: 0, End: 100}, shard(1, 40, 50),
		}, 10, 10},
	} {
		busy, covered := shardBusy(c.spans)
		if busy != c.busy || covered != c.covered {
			t.Errorf("%s: busy %v covered %v, want %v %v", c.name, busy, covered, c.busy, c.covered)
		}
	}
}
