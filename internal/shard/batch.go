package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// shardOut is one shard's slot in a Batch arena: the sweep's hit
// output, its filter accounting, and every piece of per-sweep scratch
// the shard needs, so a steady-state sweep allocates nothing. Buffers
// grow to their high-water mark once and are reused afterwards.
type shardOut struct {
	neighbors []Neighbor // all hits of the sweep, flat
	segs      []int32    // per-query [start,end) pairs into neighbors (2 per query)
	delta     obs.FilterDelta

	// Sweep scratch (see Shard.sweep).
	qd     []int32                  // query-to-pivot distances, query-major
	ob     []uint8                  // overlap-bound matrix, query-major
	cand   []int32                  // kNN candidate order (counting sort)
	counts [maxSignatureK + 2]int32 // counting-sort histogram (ob ≤ k ≤ maxSignatureK)
	heap   resultHeap
}

// Batch is a reusable query-execution arena bound to one Index: it owns
// the per-shard sweep scratch, the fan-out plumbing and the merged
// result buffer, so that steady-state queries through SearchInto /
// KNNInto / SearchBatchInto allocate nothing at all.
//
// A Batch is NOT safe for concurrent use, and every result slice it
// returns aliases its arena — valid only until the next call on the
// same Batch. Callers that retain results (caches, response buffers
// outliving the next query) must copy them; the Index-level Search /
// KNN / SearchBatch wrappers do exactly that.
type Batch struct {
	x    *Index
	qs   []Query
	span *obs.Span

	qsig []rankings.Sig
	qpop []uint8
	cut  []atomic.Int32 // per-query shared kNN cutoff (see Shard.knnInto)

	wg    sync.WaitGroup // shard goroutines: sweep done
	funcs []func()       // pre-bound per-shard sweeps: `go f()` allocates nothing
	so    []shardOut

	one [1]Query     // backing for SearchInto/KNNInto
	res []Neighbor   // merged results, flat
	out [][]Neighbor // per-query views into res
}

// NewBatch creates an execution arena for queries against x. The Batch
// is cheap to keep for the life of the index (the server's request
// batcher owns exactly one); short-lived callers can instead use the
// Index's Search/KNN/SearchBatch, which draw Batches from a pool.
func (x *Index) NewBatch() *Batch {
	b := &Batch{x: x, so: make([]shardOut, len(x.shards))}
	b.funcs = make([]func(), len(x.shards))
	for i := range b.funcs {
		i := i
		b.funcs[i] = func() {
			b.runShard(i)
			b.wg.Done()
		}
	}
	return b
}

//ranklint:allocfree
func (b *Batch) runShard(i int) {
	s := b.x.shards[i]
	so := &b.so[i]
	if b.span != nil {
		t := b.span.StartTask(b.x.spanNames[i], obs.Int("size", int64(s.Len()))) //ranklint:ignore sampled-trace branch; the zero-alloc contract covers the span==nil path
		s.sweep(b.qs, b.qsig, b.qpop, b.cut, so)
		t.SetInt("hits", int64(len(so.neighbors))) //ranklint:ignore sampled-trace branch
		t.End()                                    //ranklint:ignore sampled-trace branch
	} else {
		s.sweep(b.qs, b.qsig, b.qpop, b.cut, so)
	}
}

// SearchBatchInto answers a batch of queries in one fan-out sweep:
// every shard is visited exactly once (one RLock, all queries, one
// fused signature pass), shards run concurrently, and per-shard partial
// results are merged per query into the arena. Each shard keeps every
// ranking that can be in a kNN query's global top-n, so the merge's
// top-n is exact. The span, when non-nil, receives one task child per
// shard.
//
// The returned slices alias the Batch arena and are valid only until
// the next call on b. Queries' rankings get their position index built
// as a side effect.
//
//ranklint:allocfree
func (b *Batch) SearchBatchInto(qs []Query, span *obs.Span) ([][]Neighbor, error) {
	for i := range qs {
		if err := b.x.checkQuery(qs[i].R); err != nil { //ranklint:ignore checkQuery allocates only when building the rejection error for an invalid query
			return nil, err
		}
		// Index once, before the fan-out shares the query across
		// goroutines (Ranking.Index is not concurrency-safe).
		qs[i].R.Index()
	}
	b.qsig = growCap(b.qsig, len(qs))
	b.qpop = growCap(b.qpop, len(qs))
	b.cut = growCap(b.cut, len(qs))
	for i := range qs {
		sig, pop := qs[i].R.Signature()
		b.qsig[i] = sig
		b.qpop[i] = uint8(pop)
		b.cut[i].Store(math.MaxInt32)
	}

	b.qs, b.span = qs, span
	b.wg.Add(len(b.funcs))
	for _, f := range b.funcs {
		go f()
	}
	b.wg.Wait()
	b.qs, b.span = nil, nil

	total := 0
	for i := range b.so {
		b.x.filters.Add(b.so[i].delta)
		b.so[i].delta = obs.FilterDelta{}
		total += len(b.so[i].neighbors)
	}

	// Merge: concatenate each query's per-shard segments into the flat
	// result buffer (pre-sized from the exact hit total), sort into
	// (dist, id) order, and truncate kNN queries to their n.
	b.res = growCap(b.res, total)[:0]
	b.out = growCap(b.out, len(qs))[:0]
	for qi := range qs {
		start := len(b.res)
		for si := range b.so {
			so := &b.so[si]
			b.res = append(b.res, so.neighbors[so.segs[2*qi]:so.segs[2*qi+1]]...)
		}
		view := b.res[start:len(b.res):len(b.res)]
		slices.SortFunc(view, cmpNeighbor)
		if n := qs[qi].KNN; n > 0 && len(view) > n {
			view = view[:n]
		}
		b.out = append(b.out, view)
	}
	return b.out, nil
}

// SearchInto is Search answering into the Batch arena: every indexed
// ranking within maxDist of q (minus exclude), sorted by (dist, id).
// The result aliases the arena — valid until the next call on b.
//
//ranklint:allocfree
func (b *Batch) SearchInto(q *rankings.Ranking, maxDist int, exclude int64) ([]Neighbor, error) {
	b.one[0] = Query{R: q, MaxDist: maxDist, Exclude: exclude}
	res, err := b.SearchBatchInto(b.one[:], nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// KNNInto is KNN answering into the Batch arena: the n indexed
// rankings closest to q (minus exclude), sorted by (dist, id). The
// result aliases the arena — valid until the next call on b.
//
//ranklint:allocfree
func (b *Batch) KNNInto(q *rankings.Ranking, n int, exclude int64) ([]Neighbor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: knn n must be positive, got %d", n) //ranklint:ignore error construction for an invalid argument, off the steady-state path
	}
	b.one[0] = Query{R: q, KNN: n, Exclude: exclude}
	res, err := b.SearchBatchInto(b.one[:], nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
