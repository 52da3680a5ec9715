// Command torq-worker is the dist-engine worker process: it executes circuit
// shards shipped by an EngineDist coordinator (see repro/internal/dist).
//
// With no flags it speaks the framed worker protocol on stdin/stdout — the
// mode a coordinator uses when spawning local subprocess workers:
//
//	qpinn-train -engine dist            # coordinator spawns torq-worker itself
//
// With -listen it serves remote coordinators over TCP, one independent
// session per connection:
//
//	torq-worker -listen :7421           # on each worker machine
//	TORQ_DIST_ADDRS=host1:7421,host2:7421 qpinn-train -engine dist
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	listen := flag.String("listen", "", "TCP address to serve remote coordinators on (empty: serve one session on stdio)")
	obsFlags := obs.RegisterWorkerFlags("torq-worker")
	flag.Parse()

	stopObs, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "torq-worker:", err)
		os.Exit(2)
	}
	defer stopObs()

	if *listen != "" {
		err = dist.Listen(*listen)
	} else {
		err = dist.ServeStdio()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "torq-worker:", err)
		os.Exit(1)
	}
}
