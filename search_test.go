package rankjoin_test

import (
	"errors"
	"math/rand"
	"testing"

	"rankjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func TestKendallTauPublic(t *testing.T) {
	a, _ := rankjoin.NewRanking(0, []rankjoin.Item{1, 2, 3})
	b, _ := rankjoin.NewRanking(1, []rankjoin.Item{3, 2, 1})
	if got := rankjoin.KendallTau(a, b); got != 3 {
		t.Errorf("tau = %d, want 3", got)
	}
}

// TestIndexSearchMatchesJoinNeighbors: for every ranking, Index.Search
// must return exactly its join partners.
func TestIndexSearchMatchesJoinNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	rs := testutil.ClusteredDataset(rng, 15, 4, 8, 50)
	const theta = 0.25
	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	neighbors := map[int64]int{}
	for _, p := range res.Pairs {
		neighbors[p.A]++
		neighbors[p.B]++
	}
	idx, err := rankjoin.BuildIndex(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rs {
		hits, err := idx.Search(q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != neighbors[q.ID] {
			t.Fatalf("query %d: %d hits, join says %d", q.ID, len(hits), neighbors[q.ID])
		}
		for _, h := range hits {
			if h.A != q.ID && h.B != q.ID {
				t.Fatalf("hit %v does not involve query %d", h, q.ID)
			}
		}
	}
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := rankjoin.BuildIndex(nil, 2); !errors.Is(err, rankjoin.ErrEmptyIndex) {
		t.Errorf("empty dataset: err = %v, want ErrEmptyIndex", err)
	}
	if _, err := rankjoin.BuildIndex([]*rankjoin.Ranking{}, 2); !errors.Is(err, rankjoin.ErrEmptyIndex) {
		t.Errorf("empty slice: err = %v, want ErrEmptyIndex", err)
	}
	one := []*rankjoin.Ranking{rankings.MustNew(0, []rankings.Item{1, 2, 3})}
	if _, err := rankjoin.BuildIndex(one, 0); err == nil {
		t.Error("zero pivots accepted")
	}
	mixed := []*rankjoin.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{1, 2}),
	}
	if _, err := rankjoin.BuildIndex(mixed, 2); !errors.Is(err, rankjoin.ErrMixedLengths) {
		t.Errorf("mixed lengths: err = %v, want ErrMixedLengths", err)
	}
	dup := []*rankjoin.Ranking{
		rankings.MustNew(4, []rankings.Item{1, 2, 3}),
		rankings.MustNew(4, []rankings.Item{3, 2, 1}),
	}
	if _, err := rankjoin.BuildIndex(dup, 2); !errors.Is(err, rankjoin.ErrDuplicateID) {
		t.Errorf("duplicate ids: err = %v, want ErrDuplicateID", err)
	}
}

// TestBuildIndexPivotValidation: a pivot count below one is rejected,
// and more pivots than rankings clamps the pivot table to the dataset.
func TestBuildIndexPivotValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	few := testutil.RandDataset(rng, 3, 5, 20)
	if _, err := rankjoin.BuildIndex(few, 0); err == nil {
		t.Error("zero pivots accepted")
	}
	idx, err := rankjoin.BuildIndex(few, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hits, err := idx.Search(few[0], 1); err != nil || len(hits) != len(few)-1 {
		t.Errorf("clamped index: %d hits err %v, want %d", len(hits), err, len(few)-1)
	}
}

// bruteSearch is the oracle for range search: every ranking in rs
// within theta of q except q's own id, in Search's pair order.
func bruteSearch(rs []*rankjoin.Ranking, q *rankjoin.Ranking, theta float64) []rankjoin.Pair {
	maxDist := rankings.Threshold(theta, q.K())
	want := []rankjoin.Pair{}
	for _, r := range rs {
		if r.ID == q.ID {
			continue
		}
		if d, ok := rankings.FootruleWithin(q, r, maxDist); ok {
			want = append(want, rankings.NewPair(q.ID, r.ID, d))
		}
	}
	rankings.SortPairs(want)
	return want
}

func samePairList(a, b []rankjoin.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexSearchExact: pruning must not lose or invent results at any
// radius, for indexed and ad-hoc queries alike.
func TestIndexSearchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rs := testutil.ClusteredDataset(rng, 15, 4, 8, 50)
	idx, err := rankjoin.BuildIndex(rs, 6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		q := rs[rng.Intn(len(rs))]
		if trial%2 == 1 {
			q = testutil.RandRanking(rng, -1, 8, 50)
		}
		theta := rng.Float64()
		got, err := idx.Search(q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(rs, q, theta); !samePairList(got, want) {
			t.Fatalf("query %d theta %.3f: got %v, want %v", q.ID, theta, got, want)
		}
	}
}

// TestIndexSearchSelfExclusion: a query excludes only the indexed
// ranking carrying its own id. An identical ranking under a fresh id
// is a hit at distance 0.
func TestIndexSearchSelfExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := testutil.RandDataset(rng, 40, 6, 30)
	idx, err := rankjoin.BuildIndex(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := idx.Search(rs[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.A == h.B {
			t.Fatalf("query %d matched itself: %v", rs[3].ID, h)
		}
	}
	twin := rankings.MustNew(1_000_000, append([]rankings.Item(nil), rs[3].Items...))
	hits, err = idx.Search(twin, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h == rankings.NewPair(twin.ID, rs[3].ID, 0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresh-id twin of %d: hits %v lack the distance-0 original", rs[3].ID, hits)
	}
}

// TestSearchValidation: the query-time edge cases must surface as typed
// errors, not silently-empty results.
func TestSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rs := testutil.RandDataset(rng, 10, 5, 30)
	idx, err := rankjoin.BuildIndex(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(nil, 0.2); !errors.Is(err, rankjoin.ErrNilQuery) {
		t.Errorf("nil query: err = %v, want ErrNilQuery", err)
	}
	short := rankings.MustNew(99, []rankings.Item{1, 2})
	if _, err := idx.Search(short, 0.2); !errors.Is(err, rankjoin.ErrQueryLength) {
		t.Errorf("short query: err = %v, want ErrQueryLength", err)
	}
	q := rs[0]
	for _, theta := range []float64{-0.1, 1.5} {
		if _, err := idx.Search(q, theta); !errors.Is(err, rankjoin.ErrThetaRange) {
			t.Errorf("theta %g: err = %v, want ErrThetaRange", theta, err)
		}
	}
	// Boundary thetas are legal: 0 keeps only exact duplicates, 1
	// keeps everything.
	if hits, err := idx.Search(q, 0); err != nil || len(hits) != 0 {
		t.Errorf("theta 0: hits %v err %v, want none", hits, err)
	}
	if hits, err := idx.Search(q, 1); err != nil || len(hits) != len(rs)-1 {
		t.Errorf("theta 1: %d hits err %v, want %d", len(hits), err, len(rs)-1)
	}
}

// TestJoinRSPublic: the public R-S join against a hand-computed
// expectation, and via a weekly-snapshot use case.
func TestJoinRSPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	thisWeek := testutil.RandDataset(rng, 40, 8, 50)
	// Last week: same users, half the rankings gently drifted.
	lastWeek := make([]*rankjoin.Ranking, 0, len(thisWeek))
	for i, r := range thisWeek {
		c := r.Clone()
		if i%2 == 0 && r.K() >= 2 {
			c.Items[0], c.Items[1] = c.Items[1], c.Items[0]
		}
		c.Index()
		lastWeek = append(lastWeek, c)
	}
	res, err := rankjoin.JoinRS(thisWeek, lastWeek, rankjoin.Options{Theta: 0.1, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every user must match their own previous ranking (distance 0 or
	// 2), so there are at least len(thisWeek) pairs.
	self := 0
	for _, p := range res.Pairs {
		if p.A == p.B {
			self++
			if p.Dist != 0 && p.Dist != 2 {
				t.Errorf("self pair %v at unexpected distance", p)
			}
		}
	}
	if self != len(thisWeek) {
		t.Errorf("%d self matches, want %d", self, len(thisWeek))
	}
	if res.Kernel == nil {
		t.Error("stats missing")
	}
	if _, err := rankjoin.JoinRS(thisWeek, lastWeek, rankjoin.Options{Theta: 7}); err == nil {
		t.Error("bad theta accepted")
	}
}
