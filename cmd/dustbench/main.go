// Command dustbench regenerates the paper's tables and figures over the
// synthetic benchmark corpus.
//
// Usage:
//
//	dustbench -list             # show available experiments
//	dustbench                   # run everything at full scale
//	dustbench -exp table2       # run one experiment
//	dustbench -quick            # reduced scale (seconds instead of minutes)
//
// -cpuprofile and -memprofile wrap the run in pprof collection:
//
//	dustbench -quick -exp fig7 -cpuprofile fig7.cpu.pprof
//	go tool pprof -top fig7.cpu.pprof
//
// Performance claims are not made from here: BENCHMARK.json and
// bash bench/run.sh are the repository's benchmark.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dust/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code instead of os.Exit, so the deferred
// profile writers flush on every path out.
func run(args []string) int {
	fs := flag.NewFlagSet("dustbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "", "experiment to run (default: all)")
		quick      = fs.Bool("quick", false, "reduced workload sizes")
		list       = fs.Bool("list", false, "list experiments and exit")
		workers    = fs.Int("workers", 0, "cap parallelism via GOMAXPROCS (0 = all cores); every parallel kernel derives its default from it")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-22s %s\n", r.Name, r.Artifact)
		}
		return 0
	}
	runners := experiments.All()
	if *exp != "" {
		r, err := experiments.Get(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dustbench:", err)
			return 2
		}
		runners = []experiments.Runner{r}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dustbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dustbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dustbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dustbench:", err)
			}
		}()
	}

	cfg := experiments.Config{Quick: *quick}
	for _, r := range runners {
		start := time.Now()
		rep := r.Run(cfg)
		fmt.Println(rep.String())
		fmt.Printf("  (%s finished in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
