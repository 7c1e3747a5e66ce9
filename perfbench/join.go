package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"rankjoin"
	"rankjoin/internal/dataset"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
)

// algorithms are the paper's four distributed self-joins. CL-P runs on
// its default path (Delta 0), which derives δ from Equation 4 on every
// join, as cmd/rankjoin and the library do.
var algorithms = []rankjoin.Algorithm{rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL, rankjoin.AlgCLP}

func profileOf(wl Workload) dataset.Profile {
	if wl.Profile == "ORKU" {
		return dataset.ORKULike
	}
	return dataset.DBLPLike
}

// generate builds the workload's dataset through the same profile
// generator cmd/genranks and cmd/experiments use.
func generate(wl Workload, seed int64) ([]*rankings.Ranking, error) {
	return dataset.Generate(profileOf(wl).Config(wl.N, wl.K, seed))
}

// joinRun is one complete Engine.Join.
type joinRun struct {
	alg      rankjoin.Algorithm
	from, to time.Time
	seconds  float64
	heapMB   float64 // the heap's peak during the join
	res      *rankjoin.Result
	tracer   *obs.Tracer // traced runs only
}

// joinRounds runs the four algorithms round-robin until budget has
// passed (at least minRounds rounds). With traced set, each round runs
// every algorithm twice, once with a tracer and Stats and once plain,
// alternating which goes first.
func joinRounds(eng *rankjoin.Engine, rs []*rankings.Ranking, theta float64, budget time.Duration, minRounds int, traced bool, peak *heapPeak, tl *tally) (plain, withTrace []joinRun) {
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for _, alg := range algorithms {
			order := []bool{false}
			if traced {
				order = []bool{round%2 == 0, round%2 != 0}
			}
			for _, tr := range order {
				jr, err := joinOnce(eng, rs, alg, theta, tr, peak)
				if err != nil {
					tl.fail("join %v: %v", alg, err)
					continue
				}
				if tr {
					withTrace = append(withTrace, jr)
				} else {
					plain = append(plain, jr)
				}
			}
		}
	}
	return plain, withTrace
}

func joinOnce(eng *rankjoin.Engine, rs []*rankings.Ranking, alg rankjoin.Algorithm, theta float64, traced bool, peak *heapPeak) (joinRun, error) {
	jr := joinRun{alg: alg}
	opts := rankjoin.Options{Algorithm: alg, Theta: theta}
	if traced {
		jr.tracer = obs.NewTracer()
		eng.SetTracer(jr.tracer)
		defer eng.SetTracer(nil)
		opts.Stats = true
	}
	runtime.GC() // every join starts from the same heap state
	peak.take()
	jr.from = time.Now()
	res, err := eng.Join(rs, opts)
	jr.to = time.Now()
	jr.seconds = jr.to.Sub(jr.from).Seconds()
	jr.heapMB = peak.take()
	jr.res = res
	return jr, err
}

// checkJoins compares every join's pair set with the brute-force
// oracle, computed once here, outside every timed region, and checks
// that each filter ledger conserves.
func checkJoins(tl *tally, rs []*rankings.Ranking, theta float64, runs ...[]joinRun) []rankings.Pair {
	oracle := ppjoin.BruteForce(rs, rankings.Threshold(theta, rs[0].K()), nil)
	rankings.SortPairs(oracle)
	for _, set := range runs {
		for _, jr := range set {
			tl.check(pairsMatch(jr.res.Pairs, oracle), "join %v: %d pairs differ from the %d-pair oracle", jr.alg, len(jr.res.Pairs), len(oracle))
			f := jr.res.Filters
			tl.check(f.Conserved(), "join %v: filter ledger does not conserve: %v", jr.alg, f)
		}
	}
	return oracle
}

// pairsMatch reports whether got, sorted by (A, B) as Join returns it,
// is exactly the oracle's pair set with the oracle's distances.
func pairsMatch(got, oracle []rankings.Pair) bool {
	if len(got) != len(oracle) {
		return false
	}
	for i := range got {
		if got[i] != oracle[i] {
			return false
		}
	}
	return true
}

// byAlg collects a per-algorithm median of f over runs.
func byAlg(runs []joinRun, f func(joinRun) float64) map[rankjoin.Algorithm]float64 {
	xs := map[rankjoin.Algorithm][]float64{}
	for _, jr := range runs {
		xs[jr.alg] = append(xs[jr.alg], f(jr))
	}
	out := map[rankjoin.Algorithm]float64{}
	for alg, v := range xs {
		out[alg] = median(v)
	}
	return out
}

// spanAccount splits a traced join's root span into the time its
// direct children cover and its self time, and sums the engine's
// shuffle.scan and shuffle.write spans under it.
type spanAccount struct {
	root, children, self float64
	phases               map[string]float64 // direct child scopes by name
	scan, write          float64
}

func accountJoin(tr *obs.Tracer, alg rankjoin.Algorithm) (spanAccount, error) {
	name := "join/" + alg.String()
	for _, root := range tr.Roots() {
		if root.Name() != name {
			continue
		}
		a := spanAccount{root: root.Duration().Seconds(), phases: map[string]float64{}}
		covered := time.Duration(0)
		end := root.Start()
		for _, c := range root.Children() {
			a.phases[c.Name()] += c.Duration().Seconds()
			s, e := c.Start(), c.Start()+c.Duration()
			if s < end {
				s = end
			}
			if e > s {
				covered += e - s
				end = e
			}
		}
		a.children = covered.Seconds()
		a.self = a.root - a.children
		walkSpans(root, func(s *obs.Span) {
			switch s.Name() {
			case "shuffle.scan":
				a.scan += s.Duration().Seconds()
			case "shuffle.write":
				a.write += s.Duration().Seconds()
			}
		})
		return a, nil
	}
	return spanAccount{}, fmt.Errorf("no %s span in the trace", name)
}

func walkSpans(s *obs.Span, f func(*obs.Span)) {
	f(s)
	for _, c := range s.Children() {
		walkSpans(c, f)
	}
}

// reportAccounting prints, per CL-family join, how the root span
// splits into phase spans and self time, next to the standalone δ
// estimate that the self time should hold.
func reportAccounting(wl string, accts map[rankjoin.Algorithm]spanAccount, suggest float64) {
	for _, alg := range []rankjoin.Algorithm{rankjoin.AlgCL, rankjoin.AlgCLP} {
		a, ok := accts[alg]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s %v: root %.4fs = phases %.4fs (ordering %.4f, clustering %.4f, joining %.4f, expansion %.4f) + self %.4fs; standalone SuggestDelta %.4fs\n",
			wl, alg, a.root, a.children, a.phases["cl/ordering"], a.phases["cl/clustering"], a.phases["cl/joining"], a.phases["cl/expansion"], a.self, suggest)
	}
}
