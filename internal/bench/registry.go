package bench

import (
	"fmt"
	"io"
	"sort"

	"rtcshare/internal/datagen"
)

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg RunConfig) error
	// JSON, when non-nil, runs the experiment once, renders its text to
	// w, and returns a JSON-serialisable report (rpqbench -json).
	JSON func(w io.Writer, cfg RunConfig) (any, error)
}

// JSONReport is the envelope rpqbench -json writes: the experiment
// identity plus its structured rows, so successive BENCH_*.json files
// form a comparable perf trajectory across commits.
type JSONReport struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Report     any    `json:"report"`
}

// Experiments returns the registry of all reproducible tables/figures,
// sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "ablations", Title: "Ablations: design choices of DESIGN.md §6", Run: runAblations},
		{ID: "chaos", Title: "Chaos (beyond the paper): fault-injected serving — availability, degraded episodes, recovery", Run: runChaos, JSON: jsonChaos},
		{ID: "table3", Title: "Table III: complexity of R+G vs R̄+Ḡ (measured)", Run: runTable3},
		{ID: "table4", Title: "Table IV: dataset statistics", Run: runTable4},
		{ID: "fig10a", Title: "Fig. 10(a): response time vs degree, synthetic", Run: synth((*DegreeSweep).RenderFig10)},
		{ID: "fig10b", Title: "Fig. 10(b): response time, real datasets", Run: real((*DegreeSweep).RenderFig10)},
		{ID: "fig11a", Title: "Fig. 11(a): three-part split vs degree, synthetic", Run: synth((*DegreeSweep).RenderFig11)},
		{ID: "fig11b", Title: "Fig. 11(b): three-part split, real datasets", Run: real((*DegreeSweep).RenderFig11)},
		{ID: "fig12a", Title: "Fig. 12(a): shared data size vs degree, synthetic", Run: synth((*DegreeSweep).RenderFig12)},
		{ID: "fig12b", Title: "Fig. 12(b): shared data size, real datasets", Run: real((*DegreeSweep).RenderFig12)},
		{ID: "fig13a", Title: "Fig. 13(a): vertex counts vs degree, synthetic", Run: synth((*DegreeSweep).RenderFig13)},
		{ID: "fig13b", Title: "Fig. 13(b): vertex counts, real datasets", Run: real((*DegreeSweep).RenderFig13)},
		{ID: "fig14a", Title: "Fig. 14(a): response time vs #RPQs, RMAT_3", Run: rpqSweep(true, (*RPQSweep).RenderFig14)},
		{ID: "fig14b", Title: "Fig. 14(b): response time vs #RPQs, Advogato", Run: rpqSweep(false, (*RPQSweep).RenderFig14)},
		{ID: "fig15a", Title: "Fig. 15(a): three-part split vs #RPQs, RMAT_3", Run: rpqSweep(true, (*RPQSweep).RenderFig15)},
		{ID: "fig15b", Title: "Fig. 15(b): three-part split vs #RPQs, Advogato", Run: rpqSweep(false, (*RPQSweep).RenderFig15)},
		{ID: "fig16", Title: "Fig. 16 (beyond the paper): parallel batch evaluation vs workers", Run: runParallel, JSON: jsonParallel},
		{ID: "layout", Title: "Layout (beyond the paper): map-set vs columnar, bfs vs bitset closures", Run: runLayout, JSON: jsonLayout},
		{ID: "persist", Title: "Persist (beyond the paper): cold-rebuild boot vs snapshot-restore boot", Run: runPersist, JSON: jsonPersist},
		{ID: "planner", Title: "Planner (beyond the paper): cost-based vs rightmost-decompose", Run: runPlanner, JSON: jsonPlanner},
		{ID: "stream", Title: "Stream (beyond the paper): time-to-first-pair and delivery allocation, sealed vs pull-stream", Run: runStream, JSON: jsonStream},
		{ID: "updates", Title: "Updates (beyond the paper): incremental maintenance vs rebuild-from-scratch", Run: runUpdates, JSON: jsonUpdates},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runAblations(w io.Writer, cfg RunConfig) error {
	rows, err := RunAblations(cfg)
	if err != nil {
		return err
	}
	RenderAblations(w, rows)
	return nil
}

func runTable3(w io.Writer, cfg RunConfig) error {
	rows, err := RunTableIII(cfg)
	if err != nil {
		return err
	}
	RenderTableIII(w, rows)
	return nil
}

func runChaos(w io.Writer, cfg RunConfig) error {
	_, err := jsonChaos(w, cfg)
	return err
}

func jsonChaos(w io.Writer, cfg RunConfig) (any, error) {
	cs, err := RunChaosExperiment(cfg)
	if err != nil {
		return nil, err
	}
	cs.RenderChaos(w)
	return cs, nil
}

func runParallel(w io.Writer, cfg RunConfig) error {
	_, err := jsonParallel(w, cfg)
	return err
}

func jsonParallel(w io.Writer, cfg RunConfig) (any, error) {
	ps, err := RunParallelBatch(cfg)
	if err != nil {
		return nil, err
	}
	ps.RenderFig16(w)
	return ps, nil
}

func runLayout(w io.Writer, cfg RunConfig) error {
	_, err := jsonLayout(w, cfg)
	return err
}

func jsonLayout(w io.Writer, cfg RunConfig) (any, error) {
	ls, err := RunLayoutExperiment(cfg)
	if err != nil {
		return nil, err
	}
	ls.RenderLayout(w)
	return ls, nil
}

func runStream(w io.Writer, cfg RunConfig) error {
	_, err := jsonStream(w, cfg)
	return err
}

func jsonStream(w io.Writer, cfg RunConfig) (any, error) {
	ss, err := RunStreamExperiment(cfg)
	if err != nil {
		return nil, err
	}
	ss.RenderStream(w)
	return ss, nil
}

func runPlanner(w io.Writer, cfg RunConfig) error {
	_, err := jsonPlanner(w, cfg)
	return err
}

func runPersist(w io.Writer, cfg RunConfig) error {
	_, err := jsonPersist(w, cfg)
	return err
}

func runUpdates(w io.Writer, cfg RunConfig) error {
	_, err := jsonUpdates(w, cfg)
	return err
}

func jsonPersist(w io.Writer, cfg RunConfig) (any, error) {
	ps, err := RunPersistExperiment(cfg)
	if err != nil {
		return nil, err
	}
	ps.RenderPersist(w)
	return ps, nil
}

func jsonUpdates(w io.Writer, cfg RunConfig) (any, error) {
	us, err := RunUpdatesExperiment(cfg)
	if err != nil {
		return nil, err
	}
	us.RenderUpdates(w)
	return us, nil
}

func jsonPlanner(w io.Writer, cfg RunConfig) (any, error) {
	ps, err := RunPlannerExperiment(cfg)
	if err != nil {
		return nil, err
	}
	ps.RenderPlanner(w)
	return ps, nil
}

func runTable4(w io.Writer, cfg RunConfig) error {
	rows, err := RunTableIV(cfg)
	if err != nil {
		return err
	}
	RenderTableIV(w, rows)
	return nil
}

// synth adapts a DegreeSweep renderer over the synthetic panel.
func synth(render func(*DegreeSweep, io.Writer)) func(io.Writer, RunConfig) error {
	return func(w io.Writer, cfg RunConfig) error {
		ds, err := RunDegreeSweepSynthetic(cfg)
		if err != nil {
			return err
		}
		render(ds, w)
		return nil
	}
}

// real adapts a DegreeSweep renderer over the real-dataset panel.
func real(render func(*DegreeSweep, io.Writer)) func(io.Writer, RunConfig) error {
	return func(w io.Writer, cfg RunConfig) error {
		ds, err := RunDegreeSweepReal(cfg)
		if err != nil {
			return err
		}
		render(ds, w)
		return nil
	}
}

// rpqSweep adapts an RPQSweep renderer over RMAT_3 or Advogato.
func rpqSweep(synthetic bool, render func(*RPQSweep, io.Writer)) func(io.Writer, RunConfig) error {
	return func(w io.Writer, cfg RunConfig) error {
		spec := datagen.Advogato
		if cfg.RealVertices > 0 {
			spec = spec.ScaledTo(cfg.RealVertices)
		}
		if synthetic {
			spec = datagen.RMATSpec(3, cfg.ScaleExp)
		}
		rs, err := RunRPQSweep(cfg, spec)
		if err != nil {
			return err
		}
		render(rs, w)
		return nil
	}
}

// RunAll executes every experiment in ID order.
func RunAll(w io.Writer, cfg RunConfig) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
