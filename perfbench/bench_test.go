package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"rtcshare"
	"rtcshare/internal/eval"
	"rtcshare/internal/rpq"
)

var update = flag.Bool("update", false, "regenerate golden/paper-sets.json")

// Seeds with committed paper-sets fingerprints: the default seed and one
// held out from tuning.
var goldenSeeds = []int64{1, 4242}

const goldenSets = 64

// tiny is a configuration small enough to check against eval.Reference.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.4, trace: trace, outDir: "", shrink: 5}
}

func referenceDigest(t *testing.T, g *rtcshare.Graph, q string) digest {
	t.Helper()
	var d digest
	eval.Reference(g, rpq.MustParse(q)).Each(func(src, dst rtcshare.VID) bool { d.add(src, dst); return true })
	return d
}

// TestOutputMatchesDeclaration runs every workload end to end, untraced
// and traced, and checks the result line: all answers correct, and the
// metric names and units exactly those BENCHMARK.json declares.
func TestOutputMatchesDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	slices.Sort(names)
	slices.Sort(known)
	if !slices.Equal(names, known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, known)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			cfg := tiny(w, trace)
			cfg.outDir = t.TempDir()
			line, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: result line %q: %v", w, line, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
		}
	}
}

// TestAnswersMatchReference checks the engine under test, the oracle and
// the traced replay against eval.Reference at tiny scale, before and
// after update batches.
func TestAnswersMatchReference(t *testing.T) {
	in, err := paperGenerate(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(in.g)
	for _, qs := range in.queries[:6] {
		got, err := evalSet(in.g, qs)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := replaySet(newTracer(), in.g, qs, &replayCounts{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := referenceDigest(t, in.g, q)
			full, _, err := oracleAnswer(oracle, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want || replayed[i] != want || full != want {
				t.Errorf("%s: engine %+v, replay %+v, oracle %+v, reference %+v", q, got[i], replayed[i], full, want)
			}
		}
	}

	rig, err := churnBoot(config{seed: 3, shrink: 5, outDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.release()
	mirror := newEdgeMirror(rig.g)
	rng := rand.New(rand.NewSource(3))
	oracle = newUpdateOracle(rig.g)
	for i := 0; i < 8; i++ {
		es := mirror.nextBatch(rng, rig.g.NumVertices())
		if _, err := applyEdits(rig.d, es); err != nil {
			t.Fatal(err)
		}
		if _, err := applyEdits(oracle, es); err != nil {
			t.Fatal(err)
		}
		q := rig.standing[i%len(rig.standing)]
		want := referenceDigest(t, rig.d.Graph(), q)
		got, err := query(rig.d.Engine, q)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := oracleAnswer(oracle, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || full != want {
			t.Errorf("batch %d, %s: engine %+v, oracle %+v, reference %+v", i, q, got, full, want)
		}
	}
}

// TestCorruptAnswerFails flips one answer of each workload's check and
// expects the check to count a failure.
func TestCorruptAnswerFails(t *testing.T) {
	in, err := paperGenerate(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := evalSet(in.g, in.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	ds[4].FP++
	rep := newReport()
	if err := checkPaperSets(config{seed: 3, shrink: 5}, in, map[int][][]digest{0: {ds}}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("paper-sets: corrupted set counted %d failures, want 1", rep.failed)
	}

	sin, err := serveGenerate(3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := sin.pool[0]
	oracle := newUpdateOracle(sin.g)
	full, pg, err := oracleAnswer(oracle, q, servePageLimit)
	if err != nil {
		t.Fatal(err)
	}
	epoch := oracle.Epoch()
	good := []answer{
		{kind: kindQuery, query: q, epoch: epoch, total: full.N, dig: pg},
		{kind: kindStream, query: q, epoch: epoch, total: full.N, dig: full},
	}
	rep = newReport()
	if err := checkServed(sin.g, good, rep); err != nil || rep.failed != 0 {
		t.Fatalf("serve-mixed: correct answers counted %d failures (err %v)", rep.failed, err)
	}
	for i := range good {
		bad := slices.Clone(good)
		bad[i].dig.FP++
		rep := newReport()
		if err := checkServed(sin.g, bad, rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 1 {
			t.Errorf("serve-mixed: corrupted %v answer counted %d failures, want 1", bad[i].kind, rep.failed)
		}
	}

	rig, err := churnBoot(config{seed: 3, shrink: 5, outDir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.release()
	es := newEdgeMirror(rig.g).nextBatch(rand.New(rand.NewSource(3)), rig.g.NumVertices())
	res, err := applyEdits(rig.d, es)
	if err != nil {
		t.Fatal(err)
	}
	dig, err := query(rig.d.Engine, rig.standing[0])
	if err != nil {
		t.Fatal(err)
	}
	dig.N++
	rep = newReport()
	if err := checkChurn(rig, []round{{edits: es, epoch: res.Epoch, query: 0, dig: dig}}, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("durable-churn: corrupted round counted %d failures, want 1", rep.failed)
	}
}

// TestGoldenFingerprints checks the committed paper-sets fingerprints
// against the oracle; with -update it regenerates them.
func TestGoldenFingerprints(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	if *update {
		golden = make(map[string][]digest)
		n = goldenSets
	}
	for _, seed := range goldenSeeds {
		key := strconv.FormatInt(seed, 10)
		in, err := paperGenerate(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		want, err := oracleSets(in, idxs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range idxs {
			if *update {
				golden[key] = append(golden[key], want[i])
			} else if i >= len(golden[key]) || golden[key][i] != want[i] {
				t.Errorf("seed %d set %d: committed fingerprint is not the oracle's %+v", seed, i, want[i])
			}
		}
	}
	if *update {
		buf, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden/paper-sets.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
