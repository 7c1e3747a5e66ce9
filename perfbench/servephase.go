package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"rankjoin/internal/server"
	"rankjoin/internal/wal"
)

// recoverReps is how many times the run's WAL is recovered. Every
// recovery replays the same bytes into an empty index, so the spread
// among them (3.5 to 15 ms within one run) is interference, not work:
// recover_s is the fastest, the one least disturbed. Their median moved
// by a fifth between runs of the same seed; the fastest by a twentieth.
const recoverReps = 41

// serveResult is what the serving phase measured.
type serveResult struct {
	base       time.Time // the traffic base of ops and outs
	ops        []op      // nominal-rate phase
	outs       []outcome
	readQPSMax float64
	recoverS   float64
	recovery   wal.RecoveryStats
	status     server.Status // scraped after the nominal window (traced runs)
}

// serve drives the booted server open loop: a window at the nominal
// rates, then, in traced runs, a ladder of read rates with writes held
// at nominal, stopping at the first rung that misses the p99 limit or
// builds a backlog. It then shuts the server down, verifies sampled
// reads, and recovers the WAL into a fresh index.
func (r *runner) serve() *serveResult {
	cfg := r.wl.Serve
	t := newTraffic(cfg, r.wl, r.seed, r.srv, r.rs)
	t.base = time.Now()
	sv := &serveResult{base: t.base}

	nominal := [4]float64{cfg.SearchQPS, cfg.KNNQPS, cfg.InsertQPS, cfg.DeleteQPS}
	sv.ops = t.schedule(t.next(), r.share(r.wl.NominalShare), nominal)
	var late []time.Duration
	sv.outs, late = t.play(sv.ops)
	countOutcomes(&r.tally, sv.ops, sv.outs)
	lateMs := make([]float64, len(late))
	for i, d := range late {
		lateMs[i] = float64(d) / 1e6
	}
	fmt.Fprintf(os.Stderr, "%s nominal: %d requests; generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		r.wl.Name, len(sv.ops), median(lateMs), quantile(lateMs, 0.99), quantile(lateMs, 1))

	if r.traced {
		st, err := r.srv.status()
		if err != nil {
			r.tally.fail("scrape /statusz: %v", err)
		}
		sv.status = st
		sv.readQPSMax = r.ladder(t, rung(sv.ops, sv.outs, cfg.P99LimitMs))
	}

	if err := r.srv.close(); err != nil {
		r.tally.fail("server shutdown: %v", err)
	}
	t.verifyReads(&r.tally)

	want, unknown := t.expected()
	var times []float64
	for i := 0; i < recoverReps; i++ {
		idx, st, d, err := recoverWAL(r.srv.walDir, r.srv.walDir+"-recovered")
		if err != nil {
			r.tally.fail("recover wal: %v", err)
			continue
		}
		times = append(times, d.Seconds())
		sv.recovery = st
		checkRecovered(&r.tally, idx, want, unknown)
	}
	if len(times) > 0 {
		sv.recoverS = slices.Min(times)
	}
	return sv
}

// ladder offers the configured read rates in turn, writes held at
// their nominal rates, until a rung misses the p99 limit. It returns
// the read rate at which p99 reaches the limit, interpolated between
// the last rung that met it and the first that did not; if every rung
// met it, the top rung's achieved rate.
func (r *runner) ladder(t *traffic, nominal rungResult) float64 {
	cfg := r.wl.Serve
	readShare := cfg.SearchQPS / (cfg.SearchQPS + cfg.KNNQPS)
	last := nominal
	for _, reads := range cfg.LadderReadQPS {
		rates := [4]float64{reads * readShare, reads * (1 - readShare), cfg.InsertQPS, cfg.DeleteQPS}
		ops := t.schedule(t.next(), r.share(cfg.RungShare), rates)
		outs, _ := t.play(ops)
		countOutcomes(&r.tally, ops, outs)
		got := rung(ops, outs, cfg.P99LimitMs)
		fmt.Fprintf(os.Stderr, "%s ladder: %.0f reads/s offered, %.1f achieved, p99 %.2f ms, pass=%v\n",
			r.wl.Name, reads, got.achieved, got.p99, got.pass)
		if !got.pass {
			if !last.pass {
				return last.achieved
			}
			f := (cfg.P99LimitMs - last.p99) / (max(got.p99, cfg.P99LimitMs) - last.p99)
			return last.achieved + min(max(f, 0), 1)*(got.achieved-last.achieved)
		}
		last = got
	}
	return last.achieved
}

// rungResult is one window of traffic judged against the p99 limit.
type rungResult struct {
	pass     bool
	p99      float64 // read p99 latency, ms
	achieved float64 // reads answered per second
}

// rung judges a window: it passes with read p99 within the limit, no
// failed request and no backlog left at its end.
func rung(ops []op, outs []outcome, limitMs float64) rungResult {
	ms, failed := latencies(ops, outs, opSearch, opKNN)
	if len(ms) == 0 {
		return rungResult{}
	}
	first, last := time.Duration(1<<62), time.Duration(0)
	for i := range ops {
		if ops[i].kind.read() && outs[i].err == nil {
			first, last = min(first, ops[i].due), max(last, outs[i].done)
		}
	}
	res := rungResult{p99: quantile(ms, 0.99), achieved: float64(len(ms)) / (last - first).Seconds()}
	// Backlog: the last 5% of requests must not have queued longer
	// than the latency limit before a connection took them.
	backlog := false
	for j := len(ops) - max(1, len(ops)/20); j < len(ops); j++ {
		if float64(outs[j].start-ops[j].due)/1e6 > limitMs {
			backlog = true
		}
	}
	res.pass = failed == 0 && !backlog && res.p99 <= limitMs
	return res
}

// latencyClasses groups the request kinds whose latencies are reported.
var latencyClasses = []struct {
	name  string
	kinds []opKind
}{
	{"search", []opKind{opSearch}},
	{"knn", []opKind{opKNN}},
	{"write", []opKind{opInsert, opDelete}},
}

// endToEnd adds the nominal window's quiet median latencies and the
// recovery time. Each request is charged with the steal between its
// due time and its answer.
func (sv *serveResult) endToEnd(out map[string]metric, clock *stealClock) {
	for _, c := range latencyClasses {
		var ms []timed
		for i := range sv.ops {
			o, res := &sv.ops[i], &sv.outs[i]
			if slices.Contains(c.kinds, o.kind) && res.err == nil {
				ms = append(ms, timed{float64(res.latency(o.due)) / 1e6, clock.charge(sv.base.Add(o.due), sv.base.Add(res.done))})
			}
		}
		name := c.name + "_p50_ms"
		out[name] = metric{quiet(name, ms), "ms"}
	}
	out["recover_s"] = metric{sv.recoverS, "s"}
}

// tails adds the nominal window's p99 latencies and read_qps_max.
func (sv *serveResult) tails(out map[string]metric) {
	for _, c := range latencyClasses {
		ms, _ := latencies(sv.ops, sv.outs, c.kinds...)
		if len(ms) < 1000 {
			fmt.Fprintf(os.Stderr, "warning: %s p99 rests on %d samples (< 1000)\n", c.name, len(ms))
		}
		out[c.name+"_p99_ms"] = metric{quantile(ms, 0.99), "ms"}
	}
	out["read_qps_max"] = metric{sv.readQPSMax, "QPS"}
}
