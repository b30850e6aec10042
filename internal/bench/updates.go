package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// This file measures the dynamic-graph workload (beyond the paper): an
// interleaved update/query mix, comparing incremental maintenance —
// ApplyUpdates carrying and patching the epoch-versioned shared
// structures — against rebuilding from scratch, where every update
// round pays a cold engine whose structures are all recomputed on first
// use. Two mix families: "insert" is pure edge inserts (the case §9's
// incremental path fully covers — the acceptance gate demands ≥2x
// here), "mixed" blends in deletes (which force the recompute fallback
// for the labels they touch, shrinking the win). Both legs evaluate the
// identical query batch on the identical graph sequence and must
// produce identical result pairs, checked by order-independent
// fingerprints every round.

// UpdateRow is one (dataset, mix) measurement.
type UpdateRow struct {
	Dataset string `json:"dataset"`
	// Mix names the update family: "insert" or "mixed".
	Mix string `json:"mix"`
	// Rounds is the number of update batches; UpdatesPerRound the batch
	// size; Queries the query batch evaluated after every update batch.
	Rounds          int `json:"rounds"`
	UpdatesPerRound int `json:"updates_per_round"`
	Queries         int `json:"queries"`

	// IncrementalWall / RebuildWall are best-of-reps wall-clocks for the
	// whole update+query run: the incremental leg pays ApplyUpdates
	// (freeze + epoch migration) plus warm queries, the rebuild leg pays
	// a cold engine plus cold queries per round.
	IncrementalWall   time.Duration `json:"incremental_wall_ns"`
	RebuildWall       time.Duration `json:"rebuild_wall_ns"`
	IncrementalWallMS float64       `json:"incremental_wall_ms"`
	RebuildWallMS     float64       `json:"rebuild_wall_ms"`
	// Speedup is RebuildWall / IncrementalWall.
	Speedup float64 `json:"speedup"`

	// Carried/Patched/Dropped total the migration decisions across the
	// incremental leg's rounds (structure region), RelCarried/RelDropped
	// the relation region's.
	Carried    int `json:"carried"`
	Patched    int `json:"patched"`
	Dropped    int `json:"dropped"`
	RelCarried int `json:"rel_carried"`
	RelDropped int `json:"rel_dropped"`

	// ResultPairs totals result sizes across all rounds — the
	// cross-policy identity check.
	ResultPairs int `json:"result_pairs"`
}

// UpdateSweep is the full updates-experiment measurement.
type UpdateSweep struct {
	Config RunConfig   `json:"config"`
	Rows   []UpdateRow `json:"rows"`
}

// updateMix is one update family.
type updateMix struct {
	name string
	// deleteFrac in tenths: 0 = pure inserts, 2 = one delete per five
	// updates.
	deleteTenths int
}

func updateMixes() []updateMix {
	return []updateMix{
		{name: "insert", deleteTenths: 0},
		{name: "mixed", deleteTenths: 2},
	}
}

// ingestLabel picks the update stream's label: the last of the graph's
// alphabet.
func ingestLabel(g *graph.Graph) string {
	names := g.Dict().Names()
	return names[len(names)-1]
}

// updateReps is the best-of repetition count per cell.
const updateReps = 3

// updateRounds/updatesPerRound shape the interleaving: enough rounds
// that steady-state maintenance dominates, small enough batches that an
// update round is realistic ingest, not a graph rebuild in disguise.
const (
	updateRounds    = 6
	updatesPerRound = 24
)

// updatesLabels is the alphabet size of the experiment's RMAT datasets.
// Deliberately richer than the paper's 4-label RMATs: real graphs with
// ingest streams (Yago2s: 104 labels) have many edge types with updates
// concentrated on a few hot ones, and the alphabet is what decides how
// much of the versioned cache an update batch leaves untouched.
const updatesLabels = 16

// updatesDatasetNs picks the RMAT_N series: the denser half of the
// sweep, where closure structures and sub-query evaluation carry real
// cost — on near-empty graphs there is nothing for either maintenance
// policy to save.
func updatesDatasetNs(cfg RunConfig) []int {
	var ns []int
	for _, n := range []int{3, 5} {
		if n <= cfg.MaxN {
			ns = append(ns, n)
		}
	}
	if len(ns) == 0 {
		ns = []int{cfg.MaxN}
	}
	return ns
}

// updatesDataset draws the RMAT_N graph at the experiment's alphabet,
// keeping the paper's per-label degree 2^(N-2).
func updatesDataset(n int, cfg RunConfig) (*graph.Graph, error) {
	vertices := 1 << cfg.ScaleExp
	edges := vertices * updatesLabels * (1 << n) / 4
	return datagen.RMAT(datagen.RMATConfig{
		Vertices: vertices,
		Edges:    edges,
		Labels:   updatesLabels,
		Seed:     cfg.Seed + int64(n),
	})
}

// updateScript pre-generates the deterministic update sequence of one
// cell, so the incremental and rebuild legs (and every rep) replay the
// identical mutation history. The stream models production ingest: all
// updates carry ONE label (new follows/cites/mentions edges arriving),
// while the query workload spans the whole alphabet — so structures on
// the ingest label exercise the patch path, and everything else
// exercises the carry path. A rebuild, by contrast, recomputes all of
// it every round.
func updateScript(g *graph.Graph, mix updateMix, seed int64) [][]core.GraphUpdate {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{ingestLabel(g)}
	n := graph.VID(g.NumVertices())
	// Track the live edge set so deletes target existing edges and the
	// script stays effective.
	m := graph.MutableFromGraph(g)
	script := make([][]core.GraphUpdate, 0, updateRounds)
	for r := 0; r < updateRounds; r++ {
		var batch []core.GraphUpdate
		for len(batch) < updatesPerRound {
			label := labels[rng.Intn(len(labels))]
			if rng.Intn(10) < mix.deleteTenths {
				// Delete a random existing edge of the label when one is
				// findable from a random probe.
				src := graph.VID(rng.Intn(int(n)))
				if lid, ok := m.Dict().Lookup(label); ok {
					var dst graph.VID
					found := false
					m.EachEdge(func(e graph.Edge) bool {
						if e.Label == lid && e.Src >= src {
							dst, src, found = e.Dst, e.Src, true
							return false
						}
						return true
					})
					if found {
						if removed, _ := m.DeleteEdge(src, label, dst); removed {
							batch = append(batch, core.DeleteEdge(src, label, dst))
							continue
						}
					}
				}
				// No edge to delete: fall through to an insert.
			}
			src, dst := graph.VID(rng.Intn(int(n))), graph.VID(rng.Intn(int(n)))
			if added, _ := m.InsertEdge(src, label, dst); added {
				batch = append(batch, core.InsertEdge(src, label, dst))
			}
		}
		script = append(script, batch)
	}
	return script
}

// runUpdateLeg replays one update/query interleaving. With incremental
// set, one long-lived engine absorbs every batch via ApplyUpdates —
// paying freeze + epoch migration, keeping carried/patched structures
// warm. Otherwise every round replays the batch into a plain mutable
// graph, freezes it, and evaluates on a cold engine — rebuild from
// scratch, paying no migration but recomputing every structure and
// relation per round. Returns the total result pairs, the per-round
// result fingerprints, and (for the incremental leg) the summed
// migration counters.
func runUpdateLeg(g *graph.Graph, batch []rpq.Expr, script [][]core.GraphUpdate, incremental bool) (resultPairs int, fps []uint64, totals core.UpdateResult, err error) {
	fps = make([]uint64, 0, len(script)+1)
	evalBatch := func(e *core.Engine, round int) error {
		var fp uint64
		for qi, q := range batch {
			res, evalErr := e.Evaluate(q)
			if evalErr != nil {
				return evalErr
			}
			resultPairs += res.Len()
			qiHash := mix(uint64(round)<<32 | uint64(qi) + 1)
			res.Each(func(src, dst graph.VID) bool {
				fp += mix(qiHash ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
				return true
			})
		}
		fps = append(fps, fp)
		return nil
	}

	if incremental {
		engine := core.New(g, core.Options{})
		if err = evalBatch(engine, 0); err != nil {
			return 0, nil, totals, err
		}
		for r, updates := range script {
			res, upErr := engine.ApplyUpdates(updates)
			if upErr != nil {
				return 0, nil, totals, upErr
			}
			totals.Inserted += res.Inserted
			totals.Deleted += res.Deleted
			totals.Carried += res.Carried
			totals.Patched += res.Patched
			totals.Dropped += res.Dropped
			totals.RelCarried += res.RelCarried
			totals.RelDropped += res.RelDropped
			if err = evalBatch(engine, r+1); err != nil {
				return 0, nil, totals, err
			}
		}
		return resultPairs, fps, totals, nil
	}

	m := graph.MutableFromGraph(g)
	if err = evalBatch(core.New(g, core.Options{}), 0); err != nil {
		return 0, nil, totals, err
	}
	for r, updates := range script {
		for _, u := range updates {
			switch u.Op {
			case core.OpInsertEdge:
				_, err = m.InsertEdge(u.Src, u.Label, u.Dst)
			case core.OpDeleteEdge:
				_, err = m.DeleteEdge(u.Src, u.Label, u.Dst)
			}
			if err != nil {
				return 0, nil, totals, err
			}
		}
		if err = evalBatch(core.New(m.Freeze(), core.Options{}), r+1); err != nil {
			return 0, nil, totals, err
		}
	}
	return resultPairs, fps, totals, nil
}

// RunUpdatesExperiment crosses the two maintenance policies over RMAT
// datasets × update mixes on an interleaved update/query run.
func RunUpdatesExperiment(cfg RunConfig) (*UpdateSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	sweep := &UpdateSweep{Config: cfg}
	for _, n := range updatesDatasetNs(cfg) {
		g, err := updatesDataset(n, cfg)
		if err != nil {
			return nil, err
		}
		dataset := fmt.Sprintf("RMAT_%d", n)

		// Closure-heavy, selective workload: single-label R (the shared
		// structures the update path maintains) behind a three-label Pre,
		// so per-round cost is dominated by building R's closure
		// structures rather than by enumerating a huge join result —
		// the regime where the maintenance policy is what matters.
		wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed+int64(70*n))
		wcfg.MaxRPQs = cfg.NumRPQs
		wcfg.RLengths = []int{1}
		wcfg.PreLength = 3
		sets, err := workload.Generate(g.Dict(), wcfg)
		if err != nil {
			return nil, err
		}
		var batch []rpq.Expr
		for _, s := range sets {
			batch = append(batch, s.Queries...)
		}
		// One query closes over the ingest label itself, so every round
		// also measures the patch path (incremental SCC-merge/closure
		// maintenance) head-to-head against recomputing that structure.
		ingest := rpq.MustParse(ingestLabel(g) + "+")
		batch = append(batch, ingest)

		for _, mx := range updateMixes() {
			script := updateScript(g, mx, cfg.Seed+int64(1000*n)+int64(mx.deleteTenths))
			row := UpdateRow{
				Dataset:         dataset,
				Mix:             mx.name,
				Rounds:          updateRounds,
				UpdatesPerRound: updatesPerRound,
				Queries:         len(batch),
			}

			// Identity gate, untimed: both legs must produce identical
			// per-round result fingerprints.
			incPairs, incFPs, totals, err := runUpdateLeg(g, batch, script, true)
			if err != nil {
				return nil, fmt.Errorf("bench: updates %s/%s incremental: %w", dataset, mx.name, err)
			}
			rebPairs, rebFPs, _, err := runUpdateLeg(g, batch, script, false)
			if err != nil {
				return nil, fmt.Errorf("bench: updates %s/%s rebuild: %w", dataset, mx.name, err)
			}
			if incPairs != rebPairs || len(incFPs) != len(rebFPs) {
				return nil, fmt.Errorf("bench: updates %s/%s: result totals differ (incremental %d pairs, rebuild %d) — maintenance changed answers",
					dataset, mx.name, incPairs, rebPairs)
			}
			for r := range incFPs {
				if incFPs[r] != rebFPs[r] {
					return nil, fmt.Errorf("bench: updates %s/%s round %d: fingerprints differ — maintenance changed answers",
						dataset, mx.name, r)
				}
			}
			row.ResultPairs = incPairs
			row.Carried, row.Patched, row.Dropped = totals.Carried, totals.Patched, totals.Dropped
			row.RelCarried, row.RelDropped = totals.RelCarried, totals.RelDropped

			// Timed phase: reps interleave the legs so drift spreads
			// evenly.
			for rep := 0; rep < updateReps; rep++ {
				start := time.Now()
				if _, _, _, err := runUpdateLeg(g, batch, script, true); err != nil {
					return nil, err
				}
				incWall := time.Since(start)
				start = time.Now()
				if _, _, _, err := runUpdateLeg(g, batch, script, false); err != nil {
					return nil, err
				}
				rebWall := time.Since(start)
				if rep == 0 || incWall < row.IncrementalWall {
					row.IncrementalWall = incWall
				}
				if rep == 0 || rebWall < row.RebuildWall {
					row.RebuildWall = rebWall
				}
			}
			row.IncrementalWallMS = float64(row.IncrementalWall) / float64(time.Millisecond)
			row.RebuildWallMS = float64(row.RebuildWall) / float64(time.Millisecond)
			row.Speedup = ratio(row.RebuildWall, row.IncrementalWall)
			sweep.Rows = append(sweep.Rows, row)
		}
	}
	return sweep, nil
}

// RenderUpdates prints the incremental-vs-rebuild comparison.
func (us *UpdateSweep) RenderUpdates(w io.Writer) {
	fmt.Fprintf(w, "Updates experiment (beyond the paper): incremental maintenance vs rebuild-from-scratch, %d rounds × %d updates, closure workload\n",
		updateRounds, updatesPerRound)
	fmt.Fprintf(w, "%-8s %-7s %8s %14s %12s %9s %8s %8s %8s %12s\n",
		"dataset", "mix", "queries", "incremental", "rebuild", "speedup", "carried", "patched", "dropped", "result")
	for _, r := range us.Rows {
		fmt.Fprintf(w, "%-8s %-7s %8d %14s %12s %8.2fx %8d %8d %8d %12d\n",
			r.Dataset, r.Mix, r.Queries, ms(r.IncrementalWall), ms(r.RebuildWall), r.Speedup,
			r.Carried, r.Patched, r.Dropped, r.ResultPairs)
	}
}
