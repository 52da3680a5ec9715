package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ftdc"
	"repro/internal/trace"
)

// Flags are one command's observability flags; Start acts on them.
type Flags struct {
	cmd             string
	dump, debugAddr *string
	every           *time.Duration
}

// RegisterFlags defines -ftdc-dump, -ftdc-interval and -debug-addr for the
// command named cmd.
func RegisterFlags(cmd string) *Flags {
	return &Flags{
		cmd:       cmd,
		dump:      flag.String("ftdc-dump", "", "record flight-data telemetry and write the capture here at exit (and on SIGUSR1)"),
		every:     flag.Duration("ftdc-interval", 0, "telemetry sampling period (0 = 100ms)"),
		debugAddr: flag.String("debug-addr", "", "serve the live observability plane (/metrics, /trace, /ftdc, /healthz, /debug/pprof) on this address and enable span tracing; results stay bit-identical"),
	}
}

// Start runs what the flags ask for: a recorder dumped on SIGUSR1 and by
// stop, and the debug plane. It fails only to bind -debug-addr.
func (f *Flags) Start() (stop func(), err error) {
	var rec *ftdc.Recorder
	if *f.dump != "" || *f.debugAddr != "" {
		rec = ftdc.New(ftdc.Options{Interval: *f.every}, ftdc.Standard()...)
		rec.Start()
		if *f.dump != "" {
			rec.DumpOnSignal(*f.dump)
		}
	}
	var srv *Server
	if *f.debugAddr != "" {
		trace.SetEnabled(true)
		if srv, err = Start(*f.debugAddr, Options{Recorder: rec}); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: observability plane on http://%s\n", f.cmd, srv.Addr)
	}
	return func() {
		if srv != nil {
			srv.Close()
		}
		if rec != nil {
			rec.Stop()
		}
		if *f.dump != "" {
			if err := rec.DumpFile(*f.dump); err != nil {
				fmt.Fprintf(os.Stderr, "ftdc: %v\n", err)
			}
		}
	}, nil
}
