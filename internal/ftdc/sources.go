package ftdc

import (
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/qsim"
)

// Standard returns the repository's built-in collectors: the par scheduler,
// the qsim engine pass/epoch timers, and the dist transport. ftdc depends on
// those packages and not vice versa — subsystems export plain counter
// snapshots and stay ignorant of the recorder.
func Standard() []Collector {
	return []Collector{CollectPar, qsim.CollectTelemetry, dist.Collect}
}

// CollectPar emits the work-stealing scheduler's counters plus the live
// worker bound.
//
//torq:nolock
func CollectPar(emit func(name string, value int64)) {
	s := par.Stats()
	emit("par.regions", int64(s.Regions))
	emit("par.chunks", int64(s.Chunks))
	emit("par.steals", int64(s.Steals))
	emit("par.max_workers", int64(par.MaxWorkers()))
}
