package main

// The traced replay of the paper-sets workload: each set runs through
// the layer functions in Algorithm 1's order, with a span around every
// call, and shares what the engine would share within one set (sealed
// sub-query relations and the reduced transitive closure of R).

import (
	"fmt"

	"rtcshare"
	"rtcshare/internal/eval"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// replayCounts are the work counts the replay observes per run.
type replayCounts struct {
	pairsOut     int // pairs the automaton evaluations emitted
	units        int // batch units joined
	unitsReused  int // batch units whose RTC was built earlier in the set
	preRows      int // Pre_G rows fed into batch units
	rowsOut      int // rows batch units produced
	vrVertices   int // |V_R| summed over the RTCs built
	reducedVerts int // |V̄_R̄| summed over the RTCs built
	sharedPairs  int // |TC(Ḡ_R)| summed over the RTCs built
}

// setReplay replays one set on one graph version.
type setReplay struct {
	tr      *tracer
	g       *rtcshare.Graph
	eng     *rtcshare.Engine // batch-unit join buffers only; caches nothing here
	planner *plan.Planner
	rels    map[string]*pairs.Relation // the engine's relation memo
	rtcs    map[string]*rtc.RTC        // the engine's structure memo
	counts  *replayCounts
	req     int64
}

func newSetReplay(tr *tracer, g *rtcshare.Graph, counts *replayCounts, req int64) *setReplay {
	r := &setReplay{
		tr:     tr,
		g:      g,
		eng:    newEngine(g),
		rels:   make(map[string]*pairs.Relation),
		rtcs:   make(map[string]*rtc.RTC),
		counts: counts,
		req:    req,
	}
	// The configuration the engine's default Options give its planner.
	r.planner = plan.New(g, plan.Config{
		Mode:          plan.Heuristic,
		ColumnarJoins: true,
		SharedCached: func(e rpq.Expr) bool {
			_, ok := r.rtcs[e.String()]
			return ok
		},
	})
	return r
}

// query replays one query of the set under parent and returns the
// digest of its public result.
func (r *setReplay) query(q string, parent int32) (digest, error) {
	id := r.tr.begin("rpq.parse", parent, r.req)
	e, err := rpq.Parse(q)
	r.tr.end(id)
	if err != nil {
		return digest{}, err
	}
	rel, err := r.relation(e, "eval.query", parent)
	if err != nil {
		return digest{}, err
	}
	id = r.tr.begin("pairs.to_set", parent, r.req)
	set := rel.ToSet()
	r.tr.end(id)
	var d digest
	set.Each(func(src, dst rtcshare.VID) bool { d.add(src, dst); return true })
	return d, nil
}

// relation evaluates q to a sealed relation, memoised per set. role
// names the automaton span: which part of a batch unit q is.
func (r *setReplay) relation(q rpq.Expr, role string, parent int32) (*pairs.Relation, error) {
	key := q.String()
	if rel, ok := r.rels[key]; ok {
		return rel, nil
	}
	id := r.tr.begin("rpq.dnf", parent, r.req)
	clauses, err := rpq.ToDNFLimit(q, rpq.DefaultMaxClauses)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("plan.plan", parent, r.req)
	qp := r.planner.Plan(q, clauses)
	r.tr.end(id)

	var parts []*pairs.Relation
	for i := range qp.Clauses {
		cp := &qp.Clauses[i]
		var rel *pairs.Relation
		if cp.Kind == plan.KindAutomaton {
			rel = r.automaton(cp.Clause, role, parent)
		} else if rel, err = r.batchUnit(cp, parent); err != nil {
			return nil, err
		}
		parts = append(parts, rel)
	}
	var out *pairs.Relation
	switch len(parts) {
	case 0:
		out = pairs.NewBuilder(r.g.NumVertices()).Seal()
	case 1:
		out = parts[0]
	default:
		b := pairs.NewBuilder(r.g.NumVertices())
		for _, p := range parts {
			b.AddRelation(p)
		}
		id = r.tr.begin("pairs.seal", parent, r.req)
		out = b.Seal()
		r.tr.end(id)
	}
	r.rels[key] = out
	return out, nil
}

// automaton runs one closure-free (or bypassed) clause through the
// automaton-product evaluator and seals its output.
func (r *setReplay) automaton(clause rpq.Expr, role string, parent int32) *pairs.Relation {
	b := pairs.NewBuilder(r.g.NumVertices())
	id := r.tr.begin(role, parent, r.req)
	ev := eval.New(r.g, clause, eval.Options{})
	ev.AppendAllSeeded(b)
	r.tr.end(id)
	r.counts.pairsOut += b.Len()
	id = r.tr.begin("pairs.seal", parent, r.req)
	rel := b.Seal()
	r.tr.end(id)
	return rel
}

// batchUnit joins Pre_G through the (shared) RTC of R and Post.
func (r *setReplay) batchUnit(cp *plan.ClausePlan, parent int32) (*pairs.Relation, error) {
	if cp.Direction != plan.Forward {
		return nil, fmt.Errorf("replay: unexpected %v plan for %v", cp.Direction, cp.Clause)
	}
	bu := cp.Unit
	preG, err := r.relation(bu.Pre, "eval.pre", parent)
	if err != nil {
		return nil, err
	}
	structure, reused := r.rtcs[bu.R.String()]
	if !reused {
		if structure, err = r.buildRTC(bu.R, parent); err != nil {
			return nil, err
		}
	}
	id := r.tr.begin("core.batch_unit", parent, r.req)
	out, err := r.eng.EvalBatchUnit(preG, structure, bu.Type, bu.Post)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	r.counts.units++
	if reused {
		r.counts.unitsReused++
	}
	r.counts.preRows += preG.Len()
	r.counts.rowsOut += out.Len()
	return out, nil
}

// buildRTC evaluates R and builds its reduced transitive closure:
// edge-level reduction, Tarjan, condensation, closure.
func (r *setReplay) buildRTC(rExpr rpq.Expr, parent int32) (*rtc.RTC, error) {
	rg, err := r.relation(rExpr, "eval.r", parent)
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("rtc.edge_reduce", parent, r.req)
	gr := rtc.EdgeReduceRel(r.g.NumVertices(), rg)
	r.tr.end(id)
	id = r.tr.begin("scc.tarjan", parent, r.req)
	comps := scc.Tarjan(gr)
	r.tr.end(id)
	id = r.tr.begin("scc.condense", parent, r.req)
	cond := scc.Condense(gr, comps)
	r.tr.end(id)
	// tc.BFS is the closure the default Options configure.
	id = r.tr.begin("tc.closure", parent, r.req)
	closure := tc.BFS(cond)
	r.tr.end(id)
	structure, err := rtc.FromParts(comps, cond, closure)
	if err != nil {
		return nil, err
	}
	r.rtcs[rExpr.String()] = structure
	r.counts.vrVertices += gr.NumActive()
	r.counts.reducedVerts += structure.NumReducedVertices()
	r.counts.sharedPairs += structure.NumSharedPairs()
	return structure, nil
}
