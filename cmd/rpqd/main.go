// Command rpqd serves regular path queries over HTTP; concurrent
// requests share closure structures and results through the engine's
// shared cache.
//
// Usage:
//
//	rpqd -graph g.txt                       # serve g.txt on :8080
//	rpqd -demo                              # serve the paper's Fig. 1 graph
//	rpqd -graph g.txt -addr :9090 -max-inflight 4
//	rpqd -graph g.txt -data ./state         # durable: WAL every update batch
//	rpqd -data ./state                      # restart from the stored snapshot
//	rpqd -demo -pprof :6060                 # also serve net/http/pprof on loopback
//
// Endpoints:
//
//	POST /query    {"query":"d·(b·c)+·c","limit":100,"offset":0}
//	GET  /query?q=…&limit=…&offset=…        # same, for curl convenience
//	GET  /query?q=…&ask=1                   # existence only (short-circuit)
//	GET  /query?q=…&witness=1&src=…&dst=…   # one shortest label-path witness
//	GET  /query/stream?q=…&limit=…          # the result as NDJSON chunks
//	GET  /query/sse?q=…                     # same, framed as Server-Sent Events
//	POST /update   {"updates":[{"op":"insert","src":1,"label":"a","dst":2}]}
//	GET  /explain?q=…                       # the plan, without executing
//	GET  /healthz                           # ok | degraded | draining + epoch
//	GET  /metrics                           # cache/admission/epoch/store counters
//	POST /admin/snapshot                    # compact the log into a snapshot
//
// A wrong method on any endpoint answers 405 with an Allow header.
//
// A /query page that does not exhaust the result carries an opaque
// "next_cursor" token; sending it back as "cursor" resumes the page
// sequence. The token pins the graph epoch — resuming after an update
// answers a structured 410 instead of a page inconsistent with the
// earlier ones. /query/stream and /query/sse deliver the result
// incrementally from an epoch-pinned pull stream: -stream-chunk pairs
// per chunk, and -stream-max-lag bounds how many epochs the graph may
// advance past a live stream before it is aborted with an "epoch_lag"
// error record (0 = pinned streams always run to completion).
//
// Failure handling: a client that disconnects (or times out) abandons
// its query, whose evaluation stops at the engine's next checkpoint; an
// evaluator panic is isolated to its own query (a query
// string that keeps crashing is quarantined and rejected with 422); a
// WAL or snapshot write failure drops the daemon to a read-only
// degraded mode — /update answers 503 with Retry-After while /query
// keeps serving the last durable epoch — probed every -probe-interval
// and re-armed automatically when the medium recovers. /healthz
// reports the ladder rung: "ok", "degraded" (with the reason) or
// "draining" during graceful shutdown.
//
// With -data, every effective update batch is fsynced to a write-ahead
// log before the client hears 200, and a snapshot (graph plus the cached
// closure structures) is written on graceful shutdown, on
// POST /admin/snapshot, and every -snapshot-every batches. The next boot
// restores the snapshot — closures included, so the first queries hit a
// warm cache — and replays the log tail; a snapshot in -data wins over
// -graph.
//
// A /query whose result is memoised at the current graph epoch is
// answered at once; any other waits for one of -max-inflight evaluation
// slots (default GOMAXPROCS) and is evaluated directly on the shared
// engine, bounded by -timeout. At most 64 requests per slot may wait;
// beyond that /query answers 503 with Retry-After. Concurrent
// evaluations of the same query share one computation in the engine's
// cache, and every evaluation describes one graph epoch; /update
// advances the epoch without ever mixing versions inside an
// evaluation. SIGINT/SIGTERM shut down gracefully: in-flight requests
// finish first.
//
// -pprof serves net/http/pprof on a separate listener. Bare ":port"
// addresses are bound to 127.0.0.1 so profiles are never exposed
// off-host by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rtcshare"
	"rtcshare/internal/cli"
	"rtcshare/internal/fixtures"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.Exit("rpqd", run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rpqd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		graphPath   = fs.String("graph", "", "path to the graph file (text edge-list format)")
		demo        = fs.Bool("demo", false, "serve the paper's Fig. 1 example graph instead of -graph")
		strategy    = fs.String("strategy", "rtc", "evaluation strategy: rtc, full or no")
		planner     = fs.String("planner", "heuristic", "clause planner: heuristic or cost")
		maxInFlight = fs.Int("max-inflight", 0, "query evaluations running at once (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request timeout")
		streamChunk = fs.Int("stream-chunk", 0, "pairs per /query/stream and /query/sse chunk (0 = default 512)")
		streamLag   = fs.Uint64("stream-max-lag", 0, "abort an epoch-pinned stream once the graph advances this many epochs past it (0 = never)")
		dataDir     = fs.String("data", "", "persistence directory (snapshot + update log); a resident snapshot wins over -graph")
		snapEvery   = fs.Int("snapshot-every", 0, "with -data, also snapshot every N effective update batches (0 = only on shutdown and /admin/snapshot)")
		probeEvery  = fs.Duration("probe-interval", time.Second, "with -data, how often to probe a degraded store to re-enable updates")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this extra address (\":port\" binds 127.0.0.1; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		g   *rtcshare.Graph
		err error
	)
	switch {
	case *demo:
		g = fixtures.Figure1()
	case *graphPath != "":
		f, ferr := os.Open(*graphPath)
		if ferr != nil {
			return ferr
		}
		g, err = rtcshare.ReadGraph(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		if *dataDir == "" {
			return fmt.Errorf("-graph is required (or -demo, or -data with a resident snapshot)")
		}
		// -data alone: the store must hold a snapshot; OpenEngine says so
		// if it does not.
	}

	var strat rtcshare.Strategy
	switch *strategy {
	case "rtc":
		strat = rtcshare.RTCSharing
	case "full":
		strat = rtcshare.FullSharing
	case "no":
		strat = rtcshare.NoSharing
	default:
		return fmt.Errorf("unknown strategy %q (want rtc, full or no)", *strategy)
	}
	var mode rtcshare.PlannerMode
	switch *planner {
	case "heuristic":
		mode = rtcshare.PlannerHeuristic
	case "cost":
		mode = rtcshare.PlannerCostBased
	default:
		return fmt.Errorf("unknown planner %q (want heuristic or cost)", *planner)
	}

	eopts := rtcshare.Options{Strategy: strat, Planner: mode}
	var (
		engine  rtcshare.ServerEngine
		persist *rtcshare.PersistentEngine
	)
	if *dataDir != "" {
		st, err := rtcshare.OpenStore(*dataDir)
		if err != nil {
			return err
		}
		p, info, err := rtcshare.OpenEngine(st, g, eopts, rtcshare.PersistOptions{SnapshotEvery: *snapEvery})
		if err != nil {
			st.Close()
			return err
		}
		persist, engine = p, p.Engine
		if info.RestoredSnapshot {
			fmt.Fprintf(out, "rpqd: restored %s: snapshot epoch %d (%d RTCs, %d closures, %d relations), replayed %d batches (%d updates), epoch %d, %.1fms\n",
				*dataDir, info.SnapshotEpoch, info.RestoredRTCs, info.RestoredClosures, info.RestoredRelations,
				info.ReplayedBatches, info.ReplayedUpdates, info.Epoch, info.LoadMillis)
		} else {
			fmt.Fprintf(out, "rpqd: initialised %s from seed graph (anchor snapshot at epoch %d, %.1fms)\n",
				*dataDir, info.Epoch, info.LoadMillis)
		}
	} else {
		engine = rtcshare.NewEngine(g, eopts)
	}
	opts := rtcshare.ServerOptions{
		Persist:        persist,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		ProbeInterval:  *probeEvery,
		StreamChunk:    *streamChunk,
		StreamMaxLag:   *streamLag,
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		pl, perr := listenPprof(*pprofAddr)
		if perr != nil {
			l.Close()
			return perr
		}
		defer pl.Close()
		fmt.Fprintf(out, "rpqd: pprof on http://%s/debug/pprof/\n", pl.Addr())
	}
	fmt.Fprintf(out, "rpqd: graph %s\n", engine.Graph().Stats())
	slots := *maxInFlight
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "rpqd: serving on http://%s (max-inflight %d, timeout %v)\n", l.Addr(), slots, *timeout)
	err = rtcshare.ServeListener(ctx, l, engine, opts)
	if persist != nil {
		// Graceful shutdown: compact the log into a final snapshot so the
		// next boot restores instantly instead of replaying the tail.
		if info, serr := persist.Snapshot(); serr != nil {
			fmt.Fprintf(out, "rpqd: shutdown snapshot failed: %v\n", serr)
			if err == nil {
				err = serr
			}
		} else {
			fmt.Fprintf(out, "rpqd: shutdown snapshot: epoch %d, %d bytes, %.1fms\n", info.Epoch, info.Bytes, info.WallMillis)
		}
		if cerr := persist.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// listenPprof starts the net/http/pprof endpoints on their own listener
// and mux, so profiling never shares a port (or a handler table) with
// the query service. A bare ":port" address is bound to 127.0.0.1; to
// expose profiles beyond the host, spell out the interface explicitly.
// Closing the returned listener stops the serving goroutine.
func listenPprof(addr string) (net.Listener, error) {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(l, mux) //nolint:errcheck // exits when the listener closes
	return l, nil
}
