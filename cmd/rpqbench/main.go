// Command rpqbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	rpqbench -experiment fig10a            # one experiment
//	rpqbench -experiment planner           # cost-based vs rightmost planner
//	rpqbench -experiment layout            # map-set vs columnar, bfs vs bitset
//	rpqbench -experiment updates           # incremental maintenance vs rebuild
//	rpqbench -experiment stream            # time-to-first-pair, sealed vs pull-stream
//	rpqbench -experiment all               # everything (minutes)
//	rpqbench -experiment all -paper        # the paper's full protocol (hours)
//	rpqbench -experiment planner -json out.json   # structured report
//	rpqbench -experiment list              # show the experiment registry (same as -list)
//
// Scale knobs (-scale, -sets, -rpqs, …) trade fidelity for time; the
// default configuration reproduces every trend in minutes on a laptop.
// The committed BENCH_*.json files record the baselines; DESIGN.md
// discusses each experiment's findings.
//
// -json writes a structured report (experiment id, config, per-row wall
// times, B/op and allocs/op, shared-structure sizes, plan choices) for
// experiments that support it (planner, layout, updates, stream, chaos,
// persist, fig16), so BENCH_*.json artifacts form a machine-readable perf
// trajectory; CI emits one per run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rtcshare/internal/bench"
	"rtcshare/internal/cli"
)

func main() {
	cli.Exit("rpqbench", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("rpqbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment id (see -list) or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		paper      = fs.Bool("paper", false, "use the paper's full protocol (2^13-vertex RMAT, 90 sets; hours)")
		scale      = fs.Int("scale", 0, "override the RMAT scale exponent")
		maxN       = fs.Int("maxn", -1, "override the largest RMAT_N")
		sets       = fs.Int("sets", 0, "override the number of multiple-RPQ sets")
		rpqs       = fs.Int("rpqs", 0, "override #RPQs per set for the degree sweep")
		seed       = fs.Int64("seed", 0, "override the dataset/workload seed")
		verify     = fs.Bool("verify", false, "cross-check result counts across strategies")
		workers    = fs.Int("workers", 0, "override the largest worker fan-out of the parallel sweep (fig16)")
		clients    = fs.Int("clients", 0, "override the query-client count of the chaos experiment")
		jsonPath   = fs.String("json", "", "write the experiment's structured report to this path (planner, layout, updates, stream, chaos, persist, fig16)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list || *experiment == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *experiment == "" {
		return fmt.Errorf("-experiment is required (or -list)")
	}

	cfg := bench.DefaultConfig()
	if *paper {
		cfg = bench.PaperConfig()
	}
	if *scale > 0 {
		cfg.ScaleExp = *scale
	}
	if *maxN >= 0 {
		cfg.MaxN = *maxN
	}
	if *sets > 0 {
		cfg.NumSets = *sets
	}
	if *rpqs > 0 {
		cfg.NumRPQs = *rpqs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}
	cfg.Verify = cfg.Verify || *verify

	if *experiment == "all" {
		if *jsonPath != "" {
			return fmt.Errorf("-json needs a single experiment, not 'all'")
		}
		return bench.RunAll(os.Stdout, cfg)
	}
	e, ok := bench.Lookup(*experiment)
	if !ok {
		ids := make([]string, 0, len(bench.Experiments()))
		for _, reg := range bench.Experiments() {
			ids = append(ids, reg.ID)
		}
		return fmt.Errorf("unknown experiment %q; valid: %s (or 'all')", *experiment, strings.Join(ids, ", "))
	}
	fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
	if *jsonPath == "" {
		return e.Run(os.Stdout, cfg)
	}
	if e.JSON == nil {
		return fmt.Errorf("experiment %q has no structured report; -json supports planner, layout, updates, stream, chaos, persist and fig16", e.ID)
	}
	report, err := e.JSON(os.Stdout, cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(bench.JSONReport{Experiment: e.ID, Title: e.Title, Report: report}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *jsonPath)
	return nil
}
