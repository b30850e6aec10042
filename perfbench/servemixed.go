package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rtcshare"
	"rtcshare/internal/datagen"
	"rtcshare/internal/workload"
)

// serve-mixed drives an in-process rpqd (default ServerOptions, no
// persistence) over loopback HTTP with open-loop Poisson arrivals from
// at most two client connections: ~90% POST /query with a page limit,
// ~10% /query/stream read to the end, and a POST /update of eight
// single-label inserts every 50 arrivals. The pool of 40 paper-protocol
// queries (20 sets of 2 sharing one R) is drawn with a Zipf skew, so
// most requests are answered by the result memo; the serving stack
// (memo, coalescer, fast lane, paging, stream delivery, epoch
// migration) does most of the work. The rate is well below saturation
// because queueing amplifies the machine's own speed swings: at half the
// saturation rate the median moved by a factor of two between runs of
// one seed, at 80/s the p90 by ±30%, at 40/s by ±5%.
const (
	serveScale       = 9    // log2 |V|
	serveRate        = 40.0 // arrivals per second: ~15% of the two-connection saturation rate (~265/s on a 2-CPU container)
	servePoolSets    = 20   // the pool: 20 sets of 2 queries sharing one R each
	servePoolSize    = 2
	servePageLimit   = 100
	serveUpdateEvery = 50
	serveUpdateSize  = 8
	serveStreamShare = 0.1
	serveZipfS       = 1.1
)

type serveKind byte

const (
	kindQuery serveKind = iota
	kindStream
	kindUpdate
)

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the start of the timed phase
	kind  serveKind
	query string
	edits []edit
}

// answer is what one request returned, kept for the after-run check.
type answer struct {
	kind    serveKind
	query   string
	epoch   uint64
	total   int
	dig     digest // the page for /query, the whole result for a stream
	edits   []edit
	sent    time.Time
	done    time.Time
	firstAt time.Time
	err     error
}

type serveInput struct {
	g        *rtcshare.Graph
	pool     []string
	schedule []arrival
}

func serveGenerate(seed int64, shrink int, seconds float64) (*serveInput, error) {
	g, err := datagen.PaperRMATN(3, serveScale-shrink, graphSeed)
	if err != nil {
		return nil, err
	}
	wc := workload.DefaultConfig(servePoolSets, seed)
	wc.MaxRPQs = servePoolSize
	sets, err := workload.Generate(g.Dict(), wc)
	if err != nil {
		return nil, err
	}
	in := &serveInput{g: g}
	for _, s := range sets {
		for _, q := range s.Queries {
			in.pool = append(in.pool, q.String())
		}
	}
	rng := rand.New(rand.NewSource(seed))
	// Popularity drifts: after every update the Zipf ranking shifts by
	// one place, so over a run every pool query takes a turn as the
	// hottest, and the tail reflects the whole pool, not a seed's top few.
	rank := rng.Perm(len(in.pool))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(in.pool)-1))
	pick := func(i int) string {
		return in.pool[rank[(int(zipf.Uint64())+i/serveUpdateEvery)%len(rank)]]
	}
	labels := g.Dict().Names()
	n := int(math.Ceil(serveRate * seconds))
	var at time.Duration
	for i := 0; i < n; i++ {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		a := arrival{due: at}
		switch {
		case (i+1)%serveUpdateEvery == 0:
			a.kind = kindUpdate
			label := labels[rng.Intn(len(labels))]
			for j := 0; j < serveUpdateSize; j++ {
				a.edits = append(a.edits, edit{
					src: int32(rng.Intn(g.NumVertices())), dst: int32(rng.Intn(g.NumVertices())), label: label,
				})
			}
		case rng.Float64() < serveStreamShare:
			a.kind = kindStream
			a.query = pick(i)
		default:
			a.kind = kindQuery
			a.query = pick(i)
		}
		in.schedule = append(in.schedule, a)
	}
	return in, nil
}

// serveRig is one booted server with its engine and client.
type serveRig struct {
	in     *serveInput
	eng    *rtcshare.Engine
	timed  *timedEngine
	srv    *server
	cl     *client
	warmup []answer
}

func (r *serveRig) close() {
	r.cl.close()
	_ = r.srv.stop() // shutdown errors cannot change a finished run's figures
}

func serveBoot(cfg config, tr *tracer, seconds float64) (*serveRig, error) {
	in, err := serveGenerate(cfg.seed, cfg.shrink, seconds)
	if err != nil {
		return nil, err
	}
	r := &serveRig{in: in, eng: newEngine(in.g)}
	var served rtcshare.ServerEngine = r.eng
	if tr != nil {
		r.timed = &timedEngine{Engine: r.eng, tr: tr}
		served = r.timed
	}
	if r.srv, err = startServer(served); err != nil {
		return nil, err
	}
	r.cl = newClient(r.srv.base)
	// Warm-up: every pool query once per delivery mode fills the result
	// memo and the closure structures.
	for _, q := range in.pool {
		r.warmup = append(r.warmup, r.do(arrival{kind: kindQuery, query: q}))
		r.warmup = append(r.warmup, r.do(arrival{kind: kindStream, query: q}))
	}
	for _, a := range r.warmup {
		if a.err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", a.err)
		}
	}
	return r, nil
}

// do performs one request.
func (r *serveRig) do(a arrival) answer {
	out := answer{kind: a.kind, query: a.query, edits: a.edits, sent: time.Now()}
	switch a.kind {
	case kindQuery:
		var p page
		p, out.err = r.cl.query(a.query, servePageLimit)
		out.epoch, out.total, out.dig = p.epoch, p.total, p.page
	case kindStream:
		out.epoch, out.dig, out.firstAt, out.err = r.cl.stream(a.query)
		out.total = out.dig.N
	case kindUpdate:
		out.epoch, out.err = r.cl.update(a.edits)
	}
	out.done = time.Now()
	return out
}

func serveMixed(cfg config, tr *tracer, seconds float64) (*report, error) {
	rep := newReport()
	rig, setupS, err := timeSetup(func() (*serveRig, error) { return serveBoot(cfg, tr, seconds) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	rep.m["setup_s"] = setupS
	closed := false
	defer func() {
		if !closed {
			rig.close()
		}
	}()
	sched := rig.in.schedule
	cache0 := cacheCounters(rig.eng)
	coal0, err := rig.cl.coalescer()
	if err != nil {
		return nil, err
	}
	var spansBefore int
	if tr != nil {
		spansBefore = len(tr.snapshot())
		rig.timed.reset()
	}

	// Open loop: the generator releases each arrival at its due time
	// into a queue the two connections drain, so a stall delays later
	// requests, and their latency is counted from the due time.
	answers := make([]answer, len(sched))
	late := make(samples, 0, len(sched))
	queue := make(chan int, len(sched)) // holds every arrival: the generator never blocks
	var wg sync.WaitGroup
	alloc := startAlloc()
	heap := startHeapSampler()
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				answers[i] = rig.do(sched[i])
			}
		}()
	}
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		late.add(time.Since(start.Add(a.due)))
		queue <- i
	}
	close(queue)
	wg.Wait()
	allocBytes := alloc.bytes()
	rep.m["live_heap_mb"] = heap.medianMB()

	var (
		qLat, sFirst, uLat samples
		streams            int
	)
	for i, a := range answers {
		due := start.Add(sched[i].due)
		rep.attempted++
		if a.err != nil {
			rep.fail("%v request %q: %v", a.kind, a.query, a.err)
			continue
		}
		switch a.kind {
		case kindQuery:
			qLat.add(a.done.Sub(due))
		case kindStream:
			streams++
			if !a.firstAt.IsZero() {
				sFirst.add(a.firstAt.Sub(due))
			}
		case kindUpdate:
			uLat.add(a.done.Sub(due))
		}
	}
	rep.m["op_ms_p50"] = qLat.quantile(0.5)
	rep.m["op_ms_p90"] = qLat.quantile(0.9)
	rep.m["query_p99_ms"] = qLat.quantile(0.99)
	rep.m["stream_first_pair_ms_p50"] = sFirst.quantile(0.5)
	rep.m["update_p50_ms"] = uLat.quantile(0.5)
	rep.m["alloc_mb_per_op"] = float64(allocBytes) / (1 << 20) / float64(len(sched))
	rep.opMeanMS = qLat.mean()

	coal1, err := rig.cl.coalescer()
	if err != nil {
		return nil, err
	}
	cache1 := cacheCounters(rig.eng)
	rig.close()
	closed = true

	if cache1.CrossEpochHits != 0 {
		rep.fail("%d cross-epoch cache hits", cache1.CrossEpochHits)
	}
	rep.attempted += len(rig.warmup)
	if err := checkServed(rig.in.g, append(rig.warmup, answers...), rep); err != nil {
		return nil, err
	}

	rep.m["cache.cross_epoch_hits"] = float64(cache1.CrossEpochHits)
	if tr != nil {
		rep.m["cache.structure_hit_ratio"] = ratio(float64(cache1.Hits-cache0.Hits), float64(cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses))
		rep.m["cache.relation_hit_ratio"] = ratio(float64(cache1.RelHits-cache0.RelHits), float64(cache1.RelHits-cache0.RelHits+cache1.RelMisses-cache0.RelMisses))
		rep.m["server.dedup_ratio"] = ratio(float64(coal1.DedupHits-coal0.DedupHits), float64(coal1.Submitted-coal0.Submitted))
		rep.m["loadgen.late_ms_p99"] = late.quantile(0.99)
		rep.m["loadgen.stream_share"] = ratio(float64(streams), float64(len(sched)))
		serveLayers(tr.snapshot()[spansBefore:], rig.timed, answers, len(sched), rep)
	}
	return rep, nil
}

// checkServed replays the update script, in the order of the epochs the
// server reported, on a serial oracle engine, and checks every answer's
// epoch, total and page (or whole stream) against the oracle at that
// epoch.
func checkServed(g *rtcshare.Graph, answers []answer, rep *report) error {
	var updates, reads []answer
	for _, a := range answers {
		switch {
		case a.err != nil:
		case a.kind == kindUpdate:
			updates = append(updates, a)
		default:
			reads = append(reads, a)
		}
	}
	sort.SliceStable(updates, func(i, j int) bool { return updates[i].epoch < updates[j].epoch })
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].epoch < reads[j].epoch })
	oracle := newUpdateOracle(g)
	type expect struct {
		total      int
		page, full digest
	}
	memo := make(map[string]expect) // answers at the oracle's current epoch
	u := 0
	for _, a := range reads {
		for u < len(updates) && updates[u].epoch <= a.epoch {
			res, err := applyEdits(oracle, updates[u].edits)
			if err != nil {
				return fmt.Errorf("oracle update: %w", err)
			}
			if res.Epoch != updates[u].epoch {
				rep.fail("update reported epoch %d, oracle reached %d", updates[u].epoch, res.Epoch)
			}
			clear(memo)
			u++
		}
		if oracle.Epoch() != a.epoch {
			rep.fail("%q answered at epoch %d, which no update reached (oracle at %d)", a.query, a.epoch, oracle.Epoch())
			continue
		}
		want, ok := memo[a.query]
		if !ok {
			full, pg, err := oracleAnswer(oracle, a.query, servePageLimit)
			if err != nil {
				return fmt.Errorf("oracle %q: %w", a.query, err)
			}
			want = expect{total: full.N, page: pg, full: full}
			memo[a.query] = want
		}
		wantDig := want.page
		if a.kind == kindStream {
			wantDig = want.full
		}
		if a.total != want.total || a.dig != wantDig {
			rep.fail("%v %q at epoch %d: total %d fingerprint %x, want total %d fingerprint %x",
				a.kind, a.query, a.epoch, a.total, a.dig.FP, want.total, wantDig.FP)
		}
	}
	return nil
}

// serveLayers charges the served engine's calls to the requests and
// reports per-request layer metrics. An engine call is charged to every
// request for a query it carried whose interval overlaps the call.
func serveLayers(spans []span, te *timedEngine, answers []answer, requests int, rep *report) {
	ls := layers(spans)
	for _, name := range []string{
		"core.batch_eval", "core.single_eval", "core.stream_open", "plan.cost_probe", "core.memo_probe", "core.update_apply",
	} {
		rep.m[name+"_ms"] = float64(ls[name].busyNS) / 1e6 / float64(requests)
		rep.m[name+"_calls"] = float64(ls[name].calls) / float64(requests)
	}
	rep.m["server.queries_per_batch"] = ratio(float64(te.batchQs.Load()), float64(te.batches.Load()))
	rep.m["server.memo_hit_ratio"] = ratio(float64(te.memoHits.Load()), float64(te.memoProbes.Load()))

	byQuery := make(map[string][]span)
	for _, s := range spans {
		for _, q := range s.Queries {
			byQuery[q] = append(byQuery[q], s)
		}
	}
	t0 := te.tr.t0
	var self samples
	var reqNS, chargedNS int64
	for _, a := range answers {
		if a.kind != kindQuery || a.err != nil {
			continue
		}
		lo, hi := int64(a.sent.Sub(t0)), int64(a.done.Sub(t0))
		var ivs [][2]int64
		for _, s := range byQuery[a.query] {
			if s.End > lo && s.Start < hi {
				ivs = append(ivs, [2]int64{s.Start, s.End})
			}
		}
		charged := covered(ivs, lo, hi)
		self.add(time.Duration(hi - lo - charged))
		reqNS += hi - lo
		chargedNS += charged
	}
	rep.m["server.self_ms_p50"] = self.quantile(0.5)
	rep.m["trace.coverage"] = ratio(float64(chargedNS), float64(reqNS))
}

func (k serveKind) String() string {
	switch k {
	case kindQuery:
		return "query"
	case kindStream:
		return "stream"
	}
	return "update"
}
