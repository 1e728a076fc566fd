// Command paper-figs regenerates the tables and figures of the paper's
// evaluation section (Hechtman & Sorin, ISPASS 2013). Each figure is printed
// as a text table of the same data series the paper plots.
//
// Usage:
//
//	paper-figs -fig all             # every experiment, quick sweep sizes
//	paper-figs -fig all -parallel 4 # same tables, sweeps fanned out over 4 workers
//	paper-figs -fig 5 -full         # Figure 5 only, larger sweep
//	paper-figs -fig table2          # the system-configuration table
//	paper-figs -fig lanes           # MTTOP issue-width sensitivity sweep
//	paper-figs -fig cache           # shared-L2 size sensitivity sweep
//	paper-figs -fig protocols       # MOESI-vs-MESI coherence protocol sweep
//
// Every (workload, system) pair is resolved through the ccsvm registry and
// executed by the facade's Runner; -parallel changes only wall-clock time,
// never the numbers in the tables (each simulation is an independent
// deterministic engine).
package main

import (
	"flag"
	"fmt"
	"os"

	"ccsvm/internal/experiments"
	"ccsvm/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "which experiment to run: all, table2, 5, 6, 7, 8a, 8b, 9, code, lanes, cache, protocols")
	full := flag.Bool("full", false, "use the larger sweep sizes (slower)")
	seed := flag.Int64("seed", 42, "workload input seed")
	parallel := flag.Int("parallel", 1, "simulations to run concurrently (0 = GOMAXPROCS)")
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.Full = *full
	opts.Seed = *seed
	opts.Parallel = *parallel

	run := func(name string, fn func(experiments.Options) (*stats.Table, error)) {
		tb, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper-figs: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(tb.String())
	}

	switch *fig {
	case "all":
		tables, err := experiments.All(opts)
		for _, tb := range tables {
			fmt.Println(tb.String())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paper-figs: %v\n", err)
			os.Exit(1)
		}
	case "table2":
		fmt.Println(experiments.Table2().String())
	case "5":
		run("figure 5", experiments.Figure5)
	case "6":
		run("figure 6", experiments.Figure6)
	case "7":
		run("figure 7", experiments.Figure7)
	case "8a":
		run("figure 8 left", experiments.Figure8Left)
	case "8b":
		run("figure 8 right", experiments.Figure8Right)
	case "9":
		run("figure 9", experiments.Figure9)
	case "code":
		run("code comparison", experiments.CodeComparison)
	case "lanes":
		run("lane sensitivity", experiments.LaneSensitivity)
	case "cache":
		run("cache sensitivity", experiments.CacheSensitivity)
	case "protocols":
		run("protocol sensitivity", experiments.ProtocolSensitivity)
	default:
		fmt.Fprintf(os.Stderr, "paper-figs: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
