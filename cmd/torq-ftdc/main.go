// torq-ftdc decodes flight-data-recorder captures written by qpinn-bench or
// qpinn-train (-ftdc-dump flag, SIGUSR1 while running, or the debug plane's
// /ftdc endpoint).
//
//	torq-ftdc -summary capture.ftdc   # digest + per-worker straggler check
//	torq-ftdc -json capture.ftdc      # the same digest, machine-readable
//	torq-ftdc -csv capture.ftdc       # full sample matrix for spreadsheets
//	torq-ftdc -series dist. capture.ftdc  # only series with a name prefix
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/ftdc"
)

func main() {
	csvOut := flag.Bool("csv", false, "print every sample as CSV (time in unix ns, one column per series)")
	flag.Bool("summary", false, "print the capture digest (default when no mode is given)")
	jsonOut := flag.Bool("json", false, "print the capture digest as JSON (sorted series, stable field order)")
	series := flag.String("series", "", "restrict CSV columns to series whose name has this prefix")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: torq-ftdc [-csv|-summary|-json] [-series prefix] <capture>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	samples, err := ftdc.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "torq-ftdc: %v\n", err)
		os.Exit(1)
	}
	sum := ftdc.Summarize(samples)
	if *csvOut {
		printCSV(samples, sum, *series)
		return
	}
	if *jsonOut {
		printJSON(sum)
		return
	}
	printSummary(sum)
}

// The JSON shape mirrors torq-lint's -json conventions: stable field
// order, sorted entries, non-nil empty arrays, two-space indentation.
type jsonSummary struct {
	Samples     int                  `json:"samples"`
	StartUnixNS int64                `json:"start_unix_ns"`
	EndUnixNS   int64                `json:"end_unix_ns"`
	Metrics     []ftdc.MetricSummary `json:"metrics"`
	Workers     []ftdc.WorkerSummary `json:"workers"`
}

func printJSON(sum *ftdc.Summary) {
	out := jsonSummary{Samples: sum.Samples, Metrics: sum.Metrics, Workers: sum.Workers}
	if sum.Samples > 0 {
		out.StartUnixNS = sum.Start.UnixNano()
		out.EndUnixNS = sum.End.UnixNano()
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "torq-ftdc: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}

func printCSV(samples []ftdc.Sample, sum *ftdc.Summary, prefix string) {
	var names []string
	for _, m := range sum.Metrics { // every series, sorted by name
		if strings.HasPrefix(m.Name, prefix) {
			names = append(names, m.Name)
		}
	}
	fmt.Println("time_ns," + strings.Join(names, ","))
	row := make([]string, len(names)+1)
	for _, s := range samples {
		row[0] = strconv.FormatInt(s.T.UnixNano(), 10)
		for i, n := range names {
			if v, ok := s.Value(n); ok {
				row[i+1] = strconv.FormatInt(v, 10)
			} else {
				row[i+1] = ""
			}
		}
		fmt.Println(strings.Join(row, ","))
	}
}

func printSummary(sum *ftdc.Summary) {
	if sum.Samples == 0 {
		fmt.Println("empty capture")
		return
	}
	fmt.Printf("capture: %d samples, %s → %s (%s)\n",
		sum.Samples,
		sum.Start.Format("15:04:05.000"), sum.End.Format("15:04:05.000"),
		sum.End.Sub(sum.Start).Round(1e6))
	fmt.Printf("%-28s %14s %14s %14s\n", "series", "first", "last", "delta")
	for _, m := range sum.Metrics {
		// Histogram buckets and per-worker series are folded into their own
		// sections below.
		if m.Kind == ftdc.Plain || m.Kind == ftdc.LatencySum {
			fmt.Printf("%-28s %14d %14d %14d\n", m.Name, m.First, m.Last, m.Delta)
		}
	}
	var hist []string
	if h := sum.Latency; h != nil {
		for k, n := range h.Counts {
			if n == 0 {
				continue
			}
			if lo, hi := ftdc.BucketBounds(k); hi == 0 {
				hist = append(hist, fmt.Sprintf("≥%dµs: %d", lo, n))
			} else {
				hist = append(hist, fmt.Sprintf("[%dµs,%dµs): %d", lo, hi, n))
			}
		}
	}
	if len(hist) > 0 {
		fmt.Printf("\nper-shard latency histogram: %s\n", strings.Join(hist, "  "))
	}
	if len(sum.Workers) > 0 {
		fmt.Printf("\n%-8s %6s %10s %10s %16s %s\n", "worker", "alive", "shards", "batches", "mean shard lat", "")
		for _, w := range sum.Workers {
			flag := ""
			if w.Straggler {
				flag = "  ⚠ STRAGGLER (latency outlier vs fleet median)"
			}
			fmt.Printf("w%-7d %6t %10d %10d %16s%s\n", w.ID, w.Alive, w.Shards, w.Batches, w.MeanShardLat.Round(1e3), flag)
		}
	}
}
