package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"rankjoin"
	"rankjoin/internal/rankings"
)

// tiny is a workload small enough for a test: the same phases as the
// real ones, on 600 rankings for a few seconds.
var tiny = Workload{
	Name: "tiny", Profile: "ORKU", N: 600, K: 10, Theta: 0.3,
	JoinShare: 0.3, NominalShare: 0.4, QueryZipf: 1.1,
	Serve: ServeConfig{
		SearchQPS: 200, KNNQPS: 50, InsertQPS: 25, DeleteQPS: 25, KNNK: 5,
		QueryPool: 64, RungShare: 0.1,
		LadderReadQPS: []float64{300, 400}, P99LimitMs: 50, CheckEvery: 4,
	},
}

func TestOracleRejectsCorruptedPairs(t *testing.T) {
	rs, err := generate(tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := rankjoin.NewEngine(rankjoin.EngineConfig{})
	defer eng.Close()
	peak := startHeapPeak()
	defer peak.stop()
	jr, err := joinOnce(eng, rs, rankjoin.AlgVJNL, tiny.Theta, false, peak)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.res.Pairs) < 2 {
		t.Fatalf("need at least two result pairs, got %d", len(jr.res.Pairs))
	}
	var clean tally
	checkJoins(&clean, rs, tiny.Theta, []joinRun{jr})
	if clean.failed() != 0 {
		t.Fatalf("correct join rejected: %v", clean.failures())
	}

	pairs := jr.res.Pairs
	corrupt := map[string][]rankings.Pair{
		"dropped pair":   pairs[1:],
		"extra pair":     append(slices.Clone(pairs), rankings.NewPair(rs[0].ID, rs[len(rs)-1].ID, 0)),
		"wrong distance": slices.Clone(pairs),
		"swapped pair":   append(slices.Clone(pairs[:1]), append([]rankings.Pair{rankings.NewPair(pairs[1].A, pairs[0].B, pairs[1].Dist)}, pairs[2:]...)...),
	}
	corrupt["wrong distance"][0].Dist += 2
	for name, ps := range corrupt {
		bad := jr
		res := *jr.res
		res.Pairs = ps
		bad.res = &res
		var tl tally
		checkJoins(&tl, rs, tiny.Theta, []joinRun{bad})
		if tl.failed() == 0 {
			t.Errorf("%s: oracle check accepted a corrupted pair set", name)
		}
	}
}

func TestFilterLedgerCheck(t *testing.T) {
	rs, err := generate(tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := rankjoin.NewEngine(rankjoin.EngineConfig{})
	defer eng.Close()
	peak := startHeapPeak()
	defer peak.stop()
	jr, err := joinOnce(eng, rs, rankjoin.AlgCL, tiny.Theta, false, peak)
	if err != nil {
		t.Fatal(err)
	}
	res := *jr.res
	res.Filters.Generated++
	jr.res = &res
	var tl tally
	checkJoins(&tl, rs, tiny.Theta, []joinRun{jr})
	if tl.failed() == 0 {
		t.Error("a ledger that does not conserve passed the check")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEveryNamedMetricIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload twice")
	}
	b := readBenchmarkFile(t)
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{
		{false, b.EndToEnd},
		{true, b.PerLayer},
	} {
		r := &runner{wl: tiny, seed: 5, seconds: 4, traced: tc.traced, dir: t.TempDir()}
		out := r.execute()
		if r.tally.failed() != 0 {
			t.Errorf("traced=%v: run failed: %v", tc.traced, r.tally.failures())
		}
		named := map[string]bool{}
		for _, m := range tc.want {
			named[m.Name] = true
			got, ok := out[m.Name]
			switch {
			case !ok:
				t.Errorf("traced=%v: %s not emitted", tc.traced, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("traced=%v: %s emitted in %s, BENCHMARK.json says %s", tc.traced, m.Name, got.Unit, m.Unit)
			}
		}
		for name := range out {
			if !named[name] {
				t.Errorf("traced=%v: %s emitted but not named in BENCHMARK.json", tc.traced, name)
			}
		}
	}
}

func TestWorkloadsFileMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		wl, err := loadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wl.N < 1 || wl.Serve.QueryPool <= 1024 || len(wl.Serve.LadderReadQPS) == 0 {
			t.Errorf("%s: implausible definition %+v", w.Name, wl)
		}
	}
}

func TestQuietMedianSetsAsideStolenSamples(t *testing.T) {
	stolen := []timed{{1.0, 0}, {1.1, 0}, {1.2, 0}, {1.6, 40}, {1.7, 50}, {1.8, 60}}
	if got := quiet("stolen", stolen); got != 1.1 {
		t.Errorf("quiet median with steal = %v, want 1.1 (the median of the unstolen samples)", got)
	}
	for i := range stolen {
		stolen[i].steal = 0
	}
	if got, want := quiet("unstolen", stolen), median([]float64{1.0, 1.1, 1.2, 1.6, 1.7, 1.8}); got != want {
		t.Errorf("quiet median without steal = %v, want the plain median %v", got, want)
	}
}
