// Quickstart: the paper's running example, end to end.
//
// Builds the Fig. 1 graph, evaluates the query d·(b·c)+·c from Example 1,
// walks through the two-level graph reduction of Section III — printing
// the intermediate artifacts the paper's Examples 3–6 show — and then
// runs the same graph as a service: an in-process rpqd server fed a
// burst of concurrent clients, the serving story of DESIGN.md §10.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"rtcshare"
)

func main() {
	// The edge-labeled directed multigraph of Fig. 1 (vertices v0..v9,
	// labels a..f).
	b := rtcshare.NewGraphBuilder(10)
	edges := []struct {
		src   rtcshare.VID
		label string
		dst   rtcshare.VID
	}{
		{7, "d", 4}, {4, "b", 1}, {1, "c", 2}, {2, "c", 5}, {2, "b", 5},
		{2, "b", 3}, {3, "b", 2}, {5, "b", 6}, {5, "c", 6}, {5, "c", 4},
		{6, "c", 3}, {0, "a", 1}, {7, "a", 8}, {8, "e", 9}, {9, "f", 8},
	}
	for _, e := range edges {
		b.MustAddEdge(e.src, e.label, e.dst)
	}
	g := b.Build()
	fmt.Printf("graph: %s\n\n", g.Stats())

	engine := rtcshare.NewEngine(g, rtcshare.Options{})

	// Example 1: (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)}.
	query := "d·(b·c)+·c"
	res, err := engine.EvaluateQuery(query)
	if err != nil {
		panic(err)
	}
	fmt.Printf("query %s:\n", query)
	for _, p := range res.Sorted() {
		fmt.Printf("  (v%d, v%d)\n", p.Src, p.Dst)
	}

	// The reduction artifacts the engine produced on the way: the RTC of
	// the shared sub-query R = b·c (Examples 3–6).
	fmt.Println("\nshared structures (Section III):")
	for _, s := range engine.SharedSummaries() {
		fmt.Printf("  R = %s\n", s.R)
		fmt.Printf("    edge-level reduction  G → G_R:  |V_R|  = %d\n", s.EdgeReducedVertices)
		fmt.Printf("    vertex-level reduction G_R → Ḡ_R: |V̄_R̄| = %d SCCs (avg %.2f vertices each)\n",
			s.ReducedVertices, s.AvgSCCSize)
		fmt.Printf("    reduced transitive closure |TC(Ḡ_R)| = %d pairs\n", s.SharedPairs)
	}

	// A second query sharing the same Kleene sub-query: the RTC is
	// reused, not recomputed.
	query2 := "a·(b·c)+"
	if _, err := engine.EvaluateQuery(query2); err != nil {
		panic(err)
	}
	st := engine.Stats()
	fmt.Printf("\nafter also evaluating %s: RTC cache hits=%d misses=%d\n",
		query2, st.CacheHits, st.CacheMisses)
	fmt.Printf("timing: shared_data=%v  pre_join=%v  remainder=%v\n",
		st.SharedData, st.PreJoin, st.Remainder)

	serveIt(g)
}

// serveIt runs the Fig. 1 graph as a service: rpqd's handler on an
// ephemeral port, a burst of concurrent clients, and the /metrics view
// of what their requests shared.
func serveIt(g *rtcshare.Graph) {
	fmt.Println("\nrunning it as a service (rpqd in-process):")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The same server `rpqd -demo` runs, with its default options.
		done <- rtcshare.ServeListener(ctx, l, rtcshare.NewEngine(g, rtcshare.Options{}),
			rtcshare.ServerOptions{})
	}()

	// Four "users" fire concurrently: two ask the Example 1 query, two
	// ask other queries over the same closure (b·c)+. Each request is
	// evaluated directly, but the engine's shared cache builds the RTC
	// of R = b·c once for all four, and the repeated query either waits
	// on its twin's evaluation or hits the result memo.
	queries := []string{"d·(b·c)+·c", "d·(b·c)+·c", "a·(b·c)+", "(b·c)+"}
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"query": q, "limit": 3})
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				panic(err)
			}
			defer resp.Body.Close()
			var qr struct {
				Epoch uint64     `json:"epoch"`
				Total int        `json:"total"`
				Pairs [][2]int32 `json:"pairs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				panic(err)
			}
			fmt.Printf("  client %d: %-12s epoch=%d total=%d first pairs=%v\n",
				i, q, qr.Epoch, qr.Total, qr.Pairs)
		}(i, q)
	}
	wg.Wait()

	// What was shared, from the service's own metrics endpoint.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		panic(err)
	}
	var m struct {
		Coalescer struct {
			Submitted    int64 `json:"submitted"`
			FastPathHits int64 `json:"fast_path_hits"`
		} `json:"coalescer"`
		Cache struct {
			Misses int64 `json:"misses"`
			Hits   int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Printf("  sharing: %d requests, %d answered from the result memo; %d closure structure(s) built, reused %d time(s)\n",
		m.Coalescer.Submitted, m.Coalescer.FastPathHits, m.Cache.Misses, m.Cache.Hits)

	cancel()
	if err := <-done; err != nil {
		panic(err)
	}
	fmt.Println("  graceful shutdown: done")
}
