package main

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"rankjoin"
	"rankjoin/internal/dataset"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/vj"
	"rankjoin/internal/wal"
)

// layerProbe holds the per-layer numbers taken by calling a layer's
// public functions directly, one goroutine, outside any server.
type layerProbe struct {
	suggestS, withinNs                                  float64
	searchUs, knnUs, batchUs, insertUs, allocsPerOp     float64
	verifiedPerQuery, prunedSignatureFrac, commitWaitUs float64
}

func (r *runner) probeLayers() *layerProbe {
	lp := &layerProbe{}
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := rankjoin.SuggestDelta(r.rs, r.wl.Theta); err != nil {
			r.tally.fail("SuggestDelta: %v", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	lp.suggestS = median(ts)
	rng := rand.New(rand.NewSource(r.seed ^ 0x1a7e5))
	domain := profileOf(r.wl).Config(r.wl.N, r.wl.K, r.seed).Domain
	maxDist := rankings.Threshold(r.wl.Theta, r.wl.K)
	lp.withinNs = withinNs(r.rs, rng, domain, maxDist)
	if err := probeShard(lp, r.rs, rng, domain, maxDist, r.wl.Serve.KNNK); err != nil {
		r.tally.fail("shard probe: %v", err)
	}
	var err error
	if lp.commitWaitUs, err = commitWait(filepath.Join(r.dir, "wal-probe"), r.rs, rng, domain); err != nil {
		r.tally.fail("wal probe: %v", err)
	}
	r.tally.ok(1)
	return lp
}

// probeQueries perturbs n indexed rankings into indexed queries.
func probeQueries(rs []*rankings.Ranking, rng *rand.Rand, domain, n int) []*rankings.Ranking {
	qs := make([]*rankings.Ranking, n)
	for i := range qs {
		base := rs[rng.Intn(len(rs))]
		qs[i] = dataset.Perturb(rng, base, shard.NoExclude, 1+rng.Intn(base.K()), domain)
	}
	return qs
}

// withinNs times FootruleWithin at the workload's threshold over a
// fixed sample: half random pairs (mostly rejected early), half pairs
// of a ranking and a perturbation of it (mostly within).
func withinNs(rs []*rankings.Ranking, rng *rand.Rand, domain, maxDist int) float64 {
	const n = 4096
	as, bs := make([]*rankings.Ranking, n), make([]*rankings.Ranking, n)
	near := probeQueries(rs, rng, domain, n/2)
	for i := range as {
		as[i] = rs[rng.Intn(len(rs))]
		as[i].Index()
		if i < n/2 {
			bs[i] = rs[rng.Intn(len(rs))]
			bs[i].Index()
		} else {
			bs[i] = near[i-n/2]
		}
	}
	var per []float64
	sink := 0
	for pass := 0; pass < 60; pass++ {
		t0 := time.Now()
		for i := range as {
			d, _ := rankings.FootruleWithin(as[i], bs[i], maxDist)
			sink += d
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/n)
	}
	runtime.KeepAlive(sink)
	return median(per)
}

// probeShard measures the serving index alone: one goroutine, one
// Batch, the same rankings and shard configuration as the server.
func probeShard(lp *layerProbe, rs []*rankings.Ranking, rng *rand.Rand, domain, maxDist, knn int) error {
	idx := shard.New(shardConfig)
	for _, r := range rs {
		if err := idx.Insert(r.Clone()); err != nil {
			return err
		}
	}
	b := idx.NewBatch()
	qs := probeQueries(rs, rng, domain, 512)
	perOp := func(passes int, f func(q *rankings.Ranking) error) (float64, error) {
		var us []float64
		for pass := 0; pass < passes; pass++ {
			t0 := time.Now()
			for _, q := range qs {
				if err := f(q); err != nil {
					return 0, err
				}
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(qs)))
		}
		return median(us), nil
	}
	search := func(q *rankings.Ranking) error { _, err := b.SearchInto(q, maxDist, shard.NoExclude); return err }
	nearest := func(q *rankings.Ranking) error { _, err := b.KNNInto(q, knn, shard.NoExclude); return err }
	if _, err := perOp(1, search); err != nil { // warm the arena
		return err
	}
	f0 := idx.Filters().Snapshot()
	var err error
	if lp.searchUs, err = perOp(5, search); err != nil {
		return err
	}
	if lp.knnUs, err = perOp(5, nearest); err != nil {
		return err
	}
	f1 := idx.Filters().Snapshot()
	lp.verifiedPerQuery = float64(f1.Verified-f0.Verified) / float64(10*len(qs))
	lp.prunedSignatureFrac = float64(f1.PrunedSignature-f0.PrunedSignature) / float64(f1.Generated-f0.Generated)

	// Batches mix range and kNN queries the way the server's batcher
	// coalesces concurrent requests.
	const batch = 16
	var bq []shard.Query
	for i, q := range qs {
		if i%4 == 3 {
			bq = append(bq, shard.Query{R: q, KNN: knn, Exclude: shard.NoExclude})
		} else {
			bq = append(bq, shard.Query{R: q, MaxDist: maxDist, Exclude: shard.NoExclude})
		}
	}
	var us []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := 0; i+batch <= len(bq); i += batch {
			if _, err := b.SearchBatchInto(bq[i:i+batch], nil); err != nil {
				return err
			}
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(bq)/batch))
	}
	lp.batchUs = median(us)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		search(q)
		nearest(q)
	}
	runtime.ReadMemStats(&m1)
	lp.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(2*len(qs))

	fresh := probeQueries(rs, rng, domain, 1000)
	us = us[:0]
	for i, r := range fresh {
		r.ID = int64(1<<41 + i)
		t0 := time.Now()
		if err := idx.Insert(r); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	lp.insertUs = median(us)
	return nil
}

// commitWait is the median time an Index.Insert waits for its WAL
// group commit: inserts into an index with a wal.Manager attached minus
// the same inserts into an unhooked one.
func commitWait(dir string, rs []*rankings.Ranking, rng *rand.Rand, domain int) (float64, error) {
	hooked, plain := shard.New(shardConfig), shard.New(shardConfig)
	mgr, err := wal.Open(dir, wal.Config{Shards: shardConfig.Shards, FsyncEvery: fsyncEvery})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	if _, err := mgr.Recover(hooked); err != nil {
		return 0, err
	}
	for _, r := range rs {
		if err := hooked.Insert(r.Clone()); err != nil {
			return 0, err
		}
		if err := plain.Insert(r.Clone()); err != nil {
			return 0, err
		}
	}
	mgr.Attach(hooked)
	var withWAL, without []float64
	for i, r := range probeQueries(rs, rng, domain, 200) {
		r.ID = int64(1<<42 + i)
		for _, side := range []struct {
			idx *shard.Index
			out *[]float64
		}{{hooked, &withWAL}, {plain, &without}} {
			t0 := time.Now()
			if err := side.idx.Insert(r.Clone()); err != nil {
				return 0, err
			}
			*side.out = append(*side.out, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(withWAL) - median(without), nil
}

// layerMetrics assembles the per-layer metrics of a traced run.
func (r *runner) layerMetrics(out map[string]metric, plain, traced []joinRun, oracle []rankings.Pair, lp *layerProbe, sv *serveResult) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	sv.tails(out)
	set("stats.suggest_delta_s", lp.suggestS, "s")
	set("rankings.within_ns", lp.withinNs, "ns")

	accts := map[rankjoin.Algorithm]spanAccount{}
	var scan, write, self []joinRun
	for _, jr := range traced {
		a, err := accountJoin(jr.tracer, jr.alg)
		if err != nil {
			r.tally.fail("trace of %v: %v", jr.alg, err)
			continue
		}
		accts[jr.alg] = a
		scan = append(scan, joinRun{alg: jr.alg, seconds: a.scan})
		write = append(write, joinRun{alg: jr.alg, seconds: a.write})
		self = append(self, joinRun{alg: jr.alg, seconds: a.self})
	}
	reportAccounting(r.wl.Name, accts, lp.suggestS)
	secs := func(jr joinRun) float64 { return jr.seconds }
	scanS, writeS, selfS := byAlg(scan, secs), byAlg(write, secs), byAlg(self, secs)
	stage := func(name string) map[rankjoin.Algorithm]float64 {
		return byAlg(traced, func(jr joinRun) float64 { return jr.res.Engine.Stages[name].Seconds() })
	}
	phases := map[string]map[rankjoin.Algorithm]float64{
		"ordering": stage("cl/ordering"), "clustering": stage("cl/clustering"),
		"joining": stage("cl/joining"), "expansion": stage("cl/expansion"),
	}

	for _, alg := range algorithms {
		var res *rankjoin.Result
		for _, jr := range traced {
			if jr.alg == alg {
				res = jr.res
				break
			}
		}
		if res == nil {
			continue
		}
		a, f, e := "."+alg.String(), res.Filters, res.Engine
		set("rankings.verify_calls"+a, float64(f.Verified), "count")
		set("filters.generated"+a, float64(f.Generated), "count")
		set("filters.verified"+a, float64(f.Verified), "count")
		set("filters.emitted"+a, float64(f.Emitted), "count")
		set("filters.precision"+a, float64(f.Emitted)/float64(max(f.Verified, 1)), "ratio")
		set("flow.scan_s"+a, scanS[alg], "s")
		set("flow.write_s"+a, writeS[alg], "s")
		set("flow.spilled_records"+a, float64(e.SpilledRecords), "count")
		set("flow.shuffle_records"+a, float64(e.ShuffleRecords), "count")
		set("flow.max_partition_records"+a, float64(e.MaxPartitionRecords), "count")
		set("flow.records_per_pair"+a, float64(e.ShuffleRecords)/float64(max(len(oracle), 1)), "ratio")
		set("join.self_s"+a, selfS[alg], "s")
		var groups vj.StatsSnapshot
		switch {
		case res.Kernel != nil:
			groups = *res.Kernel
		case res.CL != nil:
			groups = res.CL.Joining.Snapshot()
		}
		set("vj.groups_split"+a, float64(groups.GroupsSplit), "count")
		set("vj.largest_group"+a, float64(groups.LargestGroup), "count")
		if res.CL != nil {
			for _, p := range []string{"ordering", "clustering", "joining", "expansion"} {
				set("core."+p+"_s"+a, phases[p][alg], "s")
			}
			set("core.clusters"+a, float64(res.CL.Clusters), "count")
			set("core.centroid_pairs"+a, float64(res.CL.CentroidPairs), "count")
		}
	}

	set("shard.search_us", lp.searchUs, "us")
	set("shard.knn_us", lp.knnUs, "us")
	set("shard.batch_us", lp.batchUs, "us")
	set("shard.allocs_per_op", lp.allocsPerOp, "allocs/op")
	set("shard.insert_us", lp.insertUs, "us")
	set("shard.verified_per_query", lp.verifiedPerQuery, "count")
	set("shard.pruned_signature_frac", lp.prunedSignatureFrac, "ratio")

	st := sv.status
	var service []float64
	for i := range sv.ops {
		if sv.ops[i].kind == opSearch && sv.outs[i].err == nil {
			service = append(service, float64(sv.outs[i].done-sv.outs[i].start)/1e3)
		}
	}
	set("server.batch_size_mean", st.Batch.MeanSize, "count")
	set("server.cache_hit_ratio", st.Cache.HitRatio, "ratio")
	set("server.overhead_us", median(service)-lp.searchUs, "us")

	if w := st.WAL; w != nil {
		set("wal.records_per_fsync", float64(w.Records)/float64(max(w.Fsyncs, 1)), "ratio")
		set("wal.fsync_ms", float64(w.FsyncP50us)/1e3, "ms")
		set("wal.bytes_per_record", float64(w.AppendedBytes)/float64(max(w.Records, 1)), "bytes")
	} else {
		r.tally.fail("/statusz has no WAL section")
	}
	set("wal.commit_wait_us", lp.commitWaitUs, "us")
	set("wal.replayed_records", float64(sv.recovery.RecordsReplayed), "count")

	var sumTraced, sumPlain float64
	tracedS, plainS := byAlg(traced, secs), byAlg(plain, secs)
	for _, alg := range algorithms {
		sumTraced += tracedS[alg]
		sumPlain += plainS[alg]
	}
	set("obs.trace_overhead_frac", sumTraced/sumPlain-1, "ratio")
}
