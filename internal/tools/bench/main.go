// Command bench regenerates every reproduction experiment (E1–E13): for
// each paper claim it runs the corresponding workloads and prints the
// measured tables, optionally writing text and CSV copies. Independent
// trials and sweep points fan out across -parallel workers; the tables are
// byte-identical for every worker count.
//
// It is an internal tool (it drives internal/exp directly, so it lives
// under internal/tools rather than cmd/, which holds only consumers of the
// public topk API). Run it from the repository root:
//
//	go run ./internal/tools/bench [-quick] [-only E4] [-seed 1]
//	    [-out results/] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"topkmon/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps and trial counts")
	only := flag.String("only", "", "run a single experiment id (e.g. E4)")
	seed := flag.Uint64("seed", 1, "root random seed")
	out := flag.String("out", "", "directory for .txt/.csv copies of each table")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent trials/sweep points (results identical for any value)")
	flag.Parse()

	opts := exp.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel}
	experiments := exp.All()
	if *only != "" {
		e, ok := exp.ByID(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *only)
			os.Exit(2)
		}
		experiments = []exp.Experiment{e}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, e := range experiments {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		tables := e.Run(opts)
		for ti, tb := range tables {
			fmt.Println(tb.String())
			if *out != "" {
				base := filepath.Join(*out, fmt.Sprintf("%s_%d", strings.ToLower(e.ID), ti))
				if err := os.WriteFile(base+".txt", []byte(tb.String()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					os.Exit(1)
				}
				if err := os.WriteFile(base+".csv", []byte(tb.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("    (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
