// Command grubbench runs the paper-reproduction experiments: one per table
// and figure of the GRuB evaluation. Each experiment is a deterministic Gas
// computation on the simulated chain, so it runs once and prints its report.
// Serving performance is measured by the repo's benchmark (go run ./benchmark).
//
// Usage:
//
//	grubbench -list
//	grubbench -run fig7 [-scale 0.25] [-seed 42]
//	grubbench -all [-scale 0.1]
package main

import (
	"flag"
	"fmt"
	"os"

	"grub/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grubbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("grubbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	id := fs.String("run", "", "experiment id to run (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 = paper scale)")
	seed := fs.Uint64("seed", 42, "trace seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", *scale)
	}

	var exps []bench.Experiment
	switch {
	case *all:
		exps = bench.Registry
	case *id != "":
		e, err := bench.ByID(*id)
		if err != nil {
			return err
		}
		exps = []bench.Experiment{e}
	default:
		return fmt.Errorf("nothing to do: pass -list, -run <id> or -all")
	}

	for _, e := range exps {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(bench.Config{W: os.Stdout, Scale: *scale, Seed: *seed}); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	return nil
}
