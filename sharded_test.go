package rankjoin_test

import (
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rankjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// TestShardedIndexMatchesStaticIndex: the dynamic and the static
// index must both answer range queries exactly like brute force over
// the same data.
func TestShardedIndexMatchesStaticIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rs := testutil.ClusteredDataset(rng, 20, 4, 8, 60)
	static, err := rankjoin.BuildIndex(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	dyn := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{Shards: 4, PivotsPerShard: 4})
	for _, r := range rs {
		if err := dyn.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", dyn.Len(), len(rs))
	}
	const theta = 0.25
	for _, q := range rs {
		want := bruteSearch(rs, q, theta)
		for _, ix := range []struct {
			name string
			x    interface {
				Search(*rankjoin.Ranking, float64) ([]rankjoin.Pair, error)
			}
		}{{"static", static}, {"sharded", dyn}} {
			got, err := ix.x.Search(q, theta)
			if err != nil {
				t.Fatal(err)
			}
			if !samePairList(got, want) {
				t.Fatalf("query %d: %s index %v, brute force %v", q.ID, ix.name, got, want)
			}
		}
	}
}

func TestShardedIndexDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rs := testutil.RandDataset(rng, 30, 6, 40)
	x := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{})

	// Empty index: searches answer empty rather than erroring, kNN of
	// a nil query is a typed error.
	if hits, err := x.Search(rs[0], 0.5); err != nil || len(hits) != 0 {
		t.Fatalf("empty search: %v, %v", hits, err)
	}
	if _, err := x.Search(nil, 0.5); !errors.Is(err, rankjoin.ErrNilQuery) {
		t.Fatalf("nil query: err = %v", err)
	}
	if _, err := x.Search(rs[0], 1.5); !errors.Is(err, rankjoin.ErrThetaRange) {
		t.Fatalf("bad theta: err = %v", err)
	}

	for _, r := range rs {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// KNN with n > Len returns everything but the query, sorted.
	nn, err := x.KNN(rs[0], len(rs)+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != len(rs)-1 {
		t.Fatalf("KNN returned %d, want %d", len(nn), len(rs)-1)
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatalf("KNN out of order at %d: %v", i, nn)
		}
	}
	// Deleting the nearest neighbor removes it from the results.
	nearest := nn[0].ID
	if ok, err := x.Delete(nearest); err != nil || !ok {
		t.Fatalf("Delete(%d) = %v, %v", nearest, ok, err)
	}
	nn2, err := x.KNN(rs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range nn2 {
		if h.ID == nearest {
			t.Fatalf("deleted ranking %d still returned", nearest)
		}
	}
}

// bruteKNN is the oracle for KNN: the n rankings of rs closest to q,
// q's own id excluded, in (dist, id) order.
func bruteKNN(rs []*rankjoin.Ranking, q *rankjoin.Ranking, n int) []rankjoin.Neighbor {
	all := make([]rankjoin.Neighbor, 0, len(rs))
	for _, r := range rs {
		if r.ID != q.ID {
			all = append(all, rankjoin.Neighbor{ID: r.ID, Dist: rankings.Footrule(q, r)})
		}
	}
	slices.SortFunc(all, func(a, b rankjoin.Neighbor) int {
		if a.Dist != b.Dist {
			return a.Dist - b.Dist
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// TestShardedIndexConcurrentReadWrite drives the public ShardedIndex
// with KNN/Search readers racing Insert/Delete writers. A watchdog
// turns a hang (a lock held across a wait) into a failure with a
// goroutine dump instead of the test-binary timeout, and at quiescence
// every answer must equal brute force over the final state.
func TestShardedIndexConcurrentReadWrite(t *testing.T) {
	const (
		writers = 2
		readers = 3
		ops     = 300
		k       = 8
		domain  = 80
		theta   = 0.3
		nn      = 5
	)
	x := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{Shards: 4, PivotsPerShard: 4, Seed: 5})
	rng := rand.New(rand.NewSource(41))
	base := testutil.RandDataset(rng, 150, k, domain)
	for _, r := range base {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Writer w owns ids [1000*(w+1), 1000*(w+1)+ops), so the final
	// state is deterministic whatever the interleaving.
	finals := make([]map[int64]*rankjoin.Ranking, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			alive := make(map[int64]*rankjoin.Ranking)
			for i := 0; i < ops; i++ {
				id := int64(1000*(w+1) + rng.Intn(ops))
				if _, ok := alive[id]; ok && rng.Intn(2) == 0 {
					if ok, err := x.Delete(id); err != nil || !ok {
						t.Errorf("Delete(%d) = %v, %v", id, ok, err)
						return
					}
					delete(alive, id)
					continue
				}
				r := testutil.RandRanking(rng, id, k, domain)
				if err := x.Insert(r); err != nil {
					t.Error(err)
					return
				}
				alive[id] = r
			}
			finals[w] = alive
		}(w)
	}
	maxDist := rankings.Threshold(theta, k)
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + rdr)))
			for i := 0; i < ops; i++ {
				q := testutil.RandRanking(rng, -1, k, domain)
				if i%2 == 0 {
					hits, err := x.Search(q, theta)
					if err != nil {
						t.Error(err)
						return
					}
					for _, h := range hits {
						if h.Dist > maxDist {
							t.Errorf("hit %v beyond maxDist %d", h, maxDist)
							return
						}
					}
					continue
				}
				got, err := x.KNN(q, nn)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != nn {
					t.Errorf("KNN returned %d neighbors, want %d", len(got), nn)
					return
				}
			}
		}(rdr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("readers and writers still running after 60s:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		return
	}

	final := append([]*rankjoin.Ranking(nil), base...)
	for _, m := range finals {
		for _, r := range m {
			final = append(final, r)
		}
	}
	if x.Len() != len(final) {
		t.Fatalf("final Len = %d, want %d", x.Len(), len(final))
	}
	qs := append([]*rankjoin.Ranking(nil), final[:10]...)
	for i := 0; i < 10; i++ {
		qs = append(qs, testutil.RandRanking(rng, -1, k, domain))
	}
	for _, q := range qs {
		hits, err := x.Search(q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(final, q, theta); !samePairList(hits, want) {
			t.Fatalf("query %d after quiescence: Search %v, brute force %v", q.ID, hits, want)
		}
		got, err := x.KNN(q, nn)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteKNN(final, q, nn); !slices.Equal(got, want) {
			t.Fatalf("query %d after quiescence: KNN %v, brute force %v", q.ID, got, want)
		}
	}
}
