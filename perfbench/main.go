// Command perfbench is the repository's benchmark. It runs one workload
// through the public surfaces (the rtcshare library and rpqd over
// loopback HTTP), checks every answer, and prints its metrics; with
// --trace 1 it instead prints per-layer metrics from a traced run.
//
//	bash perfbench/run.sh --workload paper-sets --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The metric names, units and workloads are declared in BENCHMARK.json
// at the repository root; perfbench/METRICS.md says what each one
// measures and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the span file and the durable workload's stores.
	outDir string
	// shrink lowers every workload's graph scale by this many powers of
	// two; the self-test uses it to run at tiny scale.
	shrink int
}

// report is what one pass of a workload measured.
type report struct {
	attempted, failed int
	problems          []string
	m                 map[string]float64
	// opMeanMS is the mean time of the workload's timed operation; the
	// traced and untraced passes' means give trace.overhead.
	opMeanMS float64
}

func newReport() *report { return &report{m: make(map[string]float64)} }

// fail records a failed operation or a wrong answer.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// pass runs one workload once, traced or not, for the given seconds.
type pass func(cfg config, tr *tracer, seconds float64) (*report, error)

var workloads = map[string]pass{
	"paper-sets":    paperSets,
	"serve-mixed":   serveMixed,
	"durable-churn": durableChurn,
}

type metricDecl struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload; a layer
// the workload never calls reads 0.
var perLayer = []metricDecl{
	// paper-sets: the replay of Algorithm 1, per set.
	{"rpq.parse_ms", "ms"}, {"rpq.parse_calls", "count"},
	{"rpq.dnf_ms", "ms"}, {"rpq.dnf_calls", "count"},
	{"plan.plan_ms", "ms"}, {"plan.plan_calls", "count"},
	{"eval.pre_ms", "ms"}, {"eval.pre_calls", "count"},
	{"eval.r_ms", "ms"}, {"eval.r_calls", "count"},
	{"eval.pairs_out", "count"},
	{"pairs.seal_ms", "ms"}, {"pairs.seal_calls", "count"},
	{"pairs.to_set_ms", "ms"}, {"pairs.to_set_calls", "count"},
	{"pairs.to_set_share", "ratio"},
	{"rtc.edge_reduce_ms", "ms"}, {"rtc.edge_reduce_calls", "count"},
	{"rtc.vr_vertices", "count"},
	{"scc.tarjan_ms", "ms"}, {"scc.tarjan_calls", "count"},
	{"scc.condense_ms", "ms"}, {"scc.condense_calls", "count"},
	{"scc.reduction_ratio", "ratio"},
	{"tc.closure_ms", "ms"}, {"tc.closure_calls", "count"},
	{"tc.shared_pairs", "count"},
	{"rtc.shared_data_share", "ratio"},
	{"core.batch_unit_ms", "ms"}, {"core.batch_unit_calls", "count"},
	{"core.rows_out_per_pre_row", "ratio"},
	{"core.rtc_reuse_ratio", "ratio"},
	// serve-mixed: the served engine's calls, per request.
	{"core.batch_eval_ms", "ms"}, {"core.batch_eval_calls", "count"},
	{"server.queries_per_batch", "count"},
	{"core.single_eval_ms", "ms"}, {"core.single_eval_calls", "count"},
	{"core.stream_open_ms", "ms"}, {"core.stream_open_calls", "count"},
	{"plan.cost_probe_ms", "ms"}, {"plan.cost_probe_calls", "count"},
	{"core.memo_probe_ms", "ms"}, {"core.memo_probe_calls", "count"},
	{"core.update_apply_ms", "ms"}, {"core.update_apply_calls", "count"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.dedup_ratio", "ratio"},
	{"server.self_ms_p50", "ms"},
	{"cache.structure_hit_ratio", "ratio"},
	{"cache.relation_hit_ratio", "ratio"},
	{"cache.cross_epoch_hits", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.stream_share", "ratio"},
	// durable-churn: the store and the update path, per round.
	{"store.wal_append_ms", "ms"}, {"store.wal_append_calls", "count"},
	{"store.snapshot_write_ms", "ms"}, {"store.snapshot_write_calls", "count"},
	{"store.snapshot_bytes", "B"},
	{"store.snapshot_load_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"core.apply_ms", "ms"}, {"core.apply_calls", "count"},
	{"core.evaluate_ms", "ms"}, {"core.evaluate_calls", "count"},
	{"core.carried", "count"},
	{"core.patched", "count"},
	{"core.dropped", "count"},
	{"core.effective_batch_share", "ratio"},
	{"cache.structure_rebuilds", "count"},
	// every workload
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	// End-to-end figures that only some workloads have, measured in the
	// untraced half of the traced run.
	{"query_p99_ms", "ms"},
	{"stream_first_pair_ms_p50", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"read_after_write_ms_p50", "ms"},
	{"recover_s", "s"},
	{"store_bytes_per_update", "B"},
	{"failed_frac", "ratio"},
}

// setupRepeats is how many times each pass sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 3

func main() {
	var (
		cfg     config
		traceOn int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-sets, serve-mixed or durable-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&traceOn, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceOn == 1
	cfg.outDir = ".bench_build"
	if traceOn != 0 && traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// run runs cfg's workload and returns the result line. The human-readable
// summary goes to standard output first.
func run(cfg config) (string, error) {
	sess, ok := workloads[cfg.workload]
	if !ok {
		return "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var (
		rep   *report
		decls = endToEnd
	)
	if !cfg.trace {
		r, err := sess(cfg, nil, cfg.seconds)
		if err != nil {
			return "", err
		}
		rep = r
	} else {
		// Half the time untraced, half traced: the per-layer figures
		// come from the traced half, trace.overhead from both.
		plain, err := sess(cfg, nil, cfg.seconds/2)
		if err != nil {
			return "", err
		}
		tr := newTracer()
		traced, err := sess(cfg, tr, cfg.seconds/2)
		if err != nil {
			return "", err
		}
		path := filepath.Join(cfg.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, tr.snapshot()); err != nil {
			return "", err
		}
		rep = traced
		// Figures both halves measure are taken from the untraced one.
		for _, d := range perLayer {
			if v, ok := plain.m[d.name]; ok {
				rep.m[d.name] = v
			}
		}
		rep.m["trace.overhead"] = ratio(traced.opMeanMS, plain.opMeanMS)
		rep.attempted += plain.attempted
		rep.failed += plain.failed
		rep.problems = append(plain.problems, rep.problems...)
		decls = perLayer
	}
	rep.m["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printSummary(cfg, rep)
	return resultLine(rep, decls, cfg.trace)
}

// printSummary prints every measured figure, one per line.
func printSummary(cfg config, rep *report) {
	names := make([]string, 0, len(rep.m))
	for n := range rep.m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.attempted, rep.failed)
	for _, n := range names {
		fmt.Printf("# %-28s %.6g\n", n, rep.m[n])
	}
}

// resultLine renders the final JSON object. Declared metrics must be
// finite; an end-to-end metric the workload did not measure is a bug.
func resultLine(rep *report, decls []metricDecl, traced bool) (string, error) {
	metrics := make(map[string]any, len(decls))
	for _, d := range decls {
		v, ok := rep.m[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if rep.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	buf, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	return string(buf), err
}

// timeSetup runs setup setupRepeats times, keeping the last result and
// releasing the others, and returns the median set-up time in seconds.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times samples
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times.add(time.Since(t0))
		if i < setupRepeats-1 {
			release(v)
		}
		last = v
	}
	return last, times.quantile(0.5) / 1000, nil
}
