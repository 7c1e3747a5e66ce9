package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"rankjoin/internal/dataset"
	"rankjoin/internal/rankings"
	"rankjoin/internal/server"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// The serving configuration is rankserved's defaults: 8 shards of 8
// pivots, pivot seed 1, a 1024-entry query cache, 64-query sweeps, a
// 5 s request timeout, 2 ms group commit and minute snapshots.
var shardConfig = shard.Config{Shards: 8, PivotsPerShard: 8, Seed: 1}

const (
	fsyncEvery      = 2 * time.Millisecond
	requestDeadline = 2 * time.Second
	closeDeadline   = 5 * time.Second
)

// served is one booted rankserved: index, WAL manager, request handler
// and loopback HTTP listener.
type served struct {
	mgr    *wal.Manager
	srv    *server.Server
	hs     *http.Server
	url    string
	walDir string
	done   chan error
}

// boot does what rankserved does with -wal-dir and -data: recover the
// (empty) directory, preload unhooked, snapshot once, attach the write
// hook, start the snapshot loop, and serve.
func boot(walDir string, rs []*rankings.Ranking) (*served, error) {
	idx := shard.New(shardConfig)
	mgr, err := wal.Open(walDir, wal.Config{Shards: shardConfig.Shards, FsyncEvery: fsyncEvery, SnapshotEvery: time.Minute})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	if _, err := mgr.Recover(idx); err != nil {
		mgr.Close()
		return nil, fmt.Errorf("recover wal: %w", err)
	}
	for _, r := range rs {
		if err := idx.Insert(r.Clone()); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := mgr.SnapshotAll(idx); err != nil {
		mgr.Close()
		return nil, fmt.Errorf("snapshot preload: %w", err)
	}
	mgr.Attach(idx)
	mgr.Start(idx)
	srv := server.New(server.Config{Index: idx, CacheSize: 1024, MaxBatch: 64, RequestTimeout: 5 * time.Second, WAL: mgr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		mgr.Close()
		return nil, err
	}
	s := &served{mgr: mgr, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), walDir: walDir, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close drains the listener, stops the server and closes the WAL. A
// server whose batcher is stuck (a deadlocked sweep) is reported, not
// waited for.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	stopped := make(chan struct{})
	go func() { s.srv.Close(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(closeDeadline):
		return errors.New("server close hung: batcher did not stop")
	}
	return errors.Join(err, s.mgr.Close())
}

func (s *served) status() (server.Status, error) {
	var st server.Status
	resp, err := http.Get(s.url + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

type opKind uint8

const (
	opSearch opKind = iota
	opKNN
	opInsert
	opDelete
)

var opPaths = [...]string{"/v1/search", "/v1/knn", "/v1/insert", "/v1/delete"}

func (k opKind) read() bool { return k == opSearch || k == opKNN }

// op is one scheduled request.
type op struct {
	kind  opKind
	due   time.Duration // since the traffic base
	q     int           // query pool index (reads)
	id    int64         // ranking inserted or deleted (writes)
	check bool          // verify the response against brute force
}

// outcome is what happened to one op.
type outcome struct {
	start, done time.Duration // since the traffic base
	err         error
	hits        []shard.Neighbor // checked reads only
}

func (o *outcome) latency(due time.Duration) time.Duration { return o.done - due }

// traffic is the open-loop load generator and the record of every
// write it made, for the read and recovery checks.
type traffic struct {
	cfg   ServeConfig
	theta float64
	s     *served
	rng   *rand.Rand
	base  time.Time
	conns int

	pool     []*rankings.Ranking // query rankings
	bodies   [][2][]byte         // per pool query: search and kNN request bodies
	pick     func() int          // draws a pool index
	nextRead int

	// Write targets: fresh ids for inserts, preloaded ids in a seeded
	// order for deletes, so no write depends on another's ack.
	domain    int
	preloaded []*rankings.Ranking
	delOrder  []int
	nextDel   int
	nextID    int64
	lives     map[int64]*life
	checks    []readCheck
}

// life is one ranking's write history during the run. Times are since
// the traffic base; an op that failed never acknowledges.
type life struct {
	r               *rankings.Ranking
	preloaded       bool
	insSend, insAck time.Duration
	deleted         bool
	delSend, delAck time.Duration
}

const never = time.Duration(math.MaxInt64)

type readCheck struct {
	kind        opKind
	q           int
	start, done time.Duration
	hits        []shard.Neighbor
}

func newTraffic(cfg ServeConfig, wl Workload, seed int64, s *served, rs []*rankings.Ranking) *traffic {
	rng := rand.New(rand.NewSource(seed ^ 0x5e17e))
	t := &traffic{
		cfg: cfg, theta: wl.Theta, s: s, rng: rng, conns: runtime.NumCPU(),
		domain: profileOf(wl).Config(wl.N, wl.K, seed).Domain, preloaded: rs,
		delOrder: rng.Perm(len(rs)), nextID: 1 << 40,
		lives: map[int64]*life{},
	}
	for _, r := range rs {
		t.lives[r.ID] = &life{r: r, preloaded: true, insAck: -1, insSend: -1}
	}
	// Queries are perturbations of indexed rankings, so every query has
	// neighbours and range answers are not empty.
	t.pool = make([]*rankings.Ranking, cfg.QueryPool)
	t.bodies = make([][2][]byte, cfg.QueryPool)
	for i := range t.pool {
		q := dataset.Perturb(rng, rs[rng.Intn(len(rs))], shard.NoExclude, 1+rng.Intn(wl.K), t.domain)
		t.pool[i] = q
		t.bodies[i][0], _ = json.Marshal(map[string]any{"items": q.Items, "theta": wl.Theta})
		t.bodies[i][1], _ = json.Marshal(map[string]any{"items": q.Items, "k": cfg.KNNK})
	}
	if wl.QueryZipf > 1 {
		z := rand.NewZipf(rng, wl.QueryZipf, 1, uint64(cfg.QueryPool-1))
		t.pick = func() int { return int(z.Uint64()) }
	} else {
		t.pick = func() int { return rng.Intn(cfg.QueryPool) }
	}
	return t
}

// next is the offset at which a newly scheduled window may start.
func (t *traffic) next() time.Duration { return time.Since(t.base) + 50*time.Millisecond }

// schedule lays out dur of traffic starting at offset from, each
// stream evenly spaced at its rate with a seeded phase.
func (t *traffic) schedule(from, dur time.Duration, rates [4]float64) []op {
	var ops []op
	for kind, rate := range rates {
		if rate <= 0 {
			continue
		}
		gap := time.Duration(float64(time.Second) / rate)
		for due := from + time.Duration(t.rng.Int63n(int64(gap))); due < from+dur; due += gap {
			ops = append(ops, op{kind: opKind(kind), due: due})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opSearch, opKNN:
			o.q = t.pick()
			t.nextRead++
			o.check = t.cfg.CheckEvery > 0 && t.nextRead%t.cfg.CheckEvery == 0
		case opInsert:
			base := t.preloaded[t.rng.Intn(len(t.preloaded))]
			o.id = t.nextID
			t.nextID++
			r := dataset.Perturb(t.rng, base, o.id, 1+t.rng.Intn(4), t.domain)
			t.lives[o.id] = &life{r: r, insSend: never, insAck: never}
		case opDelete:
			o.id = t.preloaded[t.delOrder[t.nextDel]].ID
			t.nextDel = (t.nextDel + 1) % len(t.delOrder)
		}
	}
	return ops
}

func (t *traffic) body(o *op) []byte {
	switch o.kind {
	case opSearch:
		return t.bodies[o.q][0]
	case opKNN:
		return t.bodies[o.q][1]
	case opInsert:
		r := t.lives[o.id].r
		b, _ := json.Marshal(map[string]any{"rankings": []map[string]any{{"id": r.ID, "items": r.Items}}})
		return b
	default:
		b, _ := json.Marshal(map[string]any{"ids": []int64{o.id}})
		return b
	}
}

// play runs ops open loop: a dispatcher hands each op, read or write,
// to whichever of conns keep-alive connections is free at its due
// time, whether or not earlier ops have finished, so writes on
// different connections can share a group commit. It returns each op's
// outcome and how late the dispatcher itself ran.
func (t *traffic) play(ops []op) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(ops))
	late := make([]time.Duration, len(ops))
	// The queue is sized to the schedule, so dispatch never blocks.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < t.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for i := range queue {
				outs[i] = t.do(client, &ops[i])
			}
		}()
	}
	for i := range ops {
		due := t.base.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	t.record(ops, outs)
	return outs, late
}

func (t *traffic) do(c *http.Client, o *op) outcome {
	var out outcome
	body := t.body(o)
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	out.start = time.Since(t.base)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.s.url+opPaths[o.kind], bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	resp, err := c.Do(req)
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("%s: %s: %s", opPaths[o.kind], resp.Status, bytes.TrimSpace(raw))
		case o.check:
			var sr struct {
				Hits []shard.Neighbor `json:"hits"`
			}
			err = json.Unmarshal(raw, &sr)
			out.hits = sr.Hits
		}
	}
	out.done = time.Since(t.base)
	out.err = err
	return out
}

// record files each write's send and ack times and each checked read.
func (t *traffic) record(ops []op, outs []outcome) {
	for i := range ops {
		o, out := &ops[i], &outs[i]
		switch o.kind {
		case opInsert:
			l := t.lives[o.id]
			l.insSend = out.start
			if out.err == nil {
				l.insAck = out.done
			}
		case opDelete:
			l := t.lives[o.id]
			if l.deleted {
				continue // a wrapped delete order re-deletes: a no-op
			}
			l.deleted, l.delSend, l.delAck = true, out.start, never
			if out.err == nil {
				l.delAck = out.done
			}
		default:
			if o.check && out.err == nil {
				t.checks = append(t.checks, readCheck{kind: o.kind, q: o.q, start: out.start, done: out.done, hits: out.hits})
			}
		}
	}
}

// presence classifies a ranking over a read's [start, done] window:
// +1 present throughout, -1 absent throughout, 0 a write overlapped.
func (l *life) presence(start, done time.Duration) int {
	in := l.preloaded || l.insAck < start
	out := !l.preloaded && l.insSend > done
	if l.deleted {
		if l.delAck < start {
			return -1
		}
		if l.delSend <= done {
			in = false
		}
	}
	switch {
	case in:
		return 1
	case out:
		return -1
	}
	return 0
}

// verifyReads checks every sampled read against a brute-force answer
// over the rankings acknowledged present during the read.
func (t *traffic) verifyReads(tl *tally) {
	maxDist := rankings.Threshold(t.theta, t.pool[0].K())
	type cand struct {
		n     shard.Neighbor
		maybe bool
	}
	lives := make([]*life, 0, len(t.lives))
	for _, l := range t.lives {
		lives = append(lives, l)
	}
	for _, c := range t.checks {
		q := t.pool[c.q]
		dist := map[int64]cand{}
		var sure []shard.Neighbor
		for _, l := range lives {
			p := l.presence(c.start, c.done)
			if p < 0 {
				continue
			}
			n := shard.Neighbor{ID: l.r.ID, Dist: rankings.Footrule(q, l.r)}
			dist[n.ID] = cand{n, p == 0}
			if p > 0 {
				sure = append(sure, n)
			}
		}
		slices.SortFunc(sure, cmpNeighbor)
		got := c.hits
		okHits := slices.IsSortedFunc(got, cmpNeighbor)
		for _, h := range got {
			if d, ok := dist[h.ID]; !ok || d.n.Dist != h.Dist {
				okHits = false
			}
		}
		if c.kind == opSearch {
			var want []shard.Neighbor
			for _, n := range sure {
				if n.Dist <= maxDist {
					want = append(want, n)
				}
			}
			// Every sure hit must be returned; extra hits may only be
			// rankings whose writes overlapped the read.
			have := map[int64]bool{}
			for _, h := range got {
				have[h.ID] = true
				okHits = okHits && h.Dist <= maxDist
			}
			for _, n := range want {
				if !have[n.ID] {
					okHits = false
				}
			}
			tl.check(okHits, "search %d at [%v,%v]: got %d hits, want %d", c.q, c.start, c.done, len(got), len(want))
			continue
		}
		k := t.cfg.KNNK
		want := sure[:min(k, len(sure))]
		ambiguous := len(sure) < k
		for _, d := range dist {
			if d.maybe && (ambiguous || cmpNeighbor(d.n, want[len(want)-1]) < 0) {
				ambiguous = true
			}
		}
		if !ambiguous {
			okHits = okHits && slices.Equal(got, want)
		}
		tl.check(okHits, "knn %d at [%v,%v]: got %v, want %v", c.q, c.start, c.done, got, want)
	}
}

func cmpNeighbor(a, b shard.Neighbor) int {
	if a.Dist != b.Dist {
		return a.Dist - b.Dist
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// expected returns the state every acknowledged write implies, and the
// ids whose final state is unknown because a write to them failed.
func (t *traffic) expected() (map[int64]*rankings.Ranking, map[int64]bool) {
	want := map[int64]*rankings.Ranking{}
	unknown := map[int64]bool{}
	for id, l := range t.lives {
		switch {
		case l.deleted && l.delAck == never, !l.preloaded && l.insAck == never:
			unknown[id] = true
		case l.deleted:
		default:
			want[id] = l.r
		}
	}
	return want, unknown
}

// recoverWAL replays a copy of the run's WAL directory into a fresh
// index. Opening a WAL directory starts a new segment in it, so each
// recovery works on its own copy and every one sees the directory
// exactly as the server left it.
func recoverWAL(dir, scratch string) (*shard.Index, wal.RecoveryStats, time.Duration, error) {
	if err := os.CopyFS(scratch, os.DirFS(dir)); err != nil {
		return nil, wal.RecoveryStats{}, 0, err
	}
	defer os.RemoveAll(scratch)
	idx := shard.New(shardConfig)
	mgr, err := wal.Open(scratch, wal.Config{Shards: shardConfig.Shards, FsyncEvery: fsyncEvery})
	if err != nil {
		return nil, wal.RecoveryStats{}, 0, err
	}
	runtime.GC()
	start := time.Now()
	st, err := mgr.Recover(idx)
	d := time.Since(start)
	return idx, st, d, errors.Join(err, mgr.Close())
}

// checkRecovered compares a recovered index with the acknowledged
// state; the whole comparison is one check.
func checkRecovered(tl *tally, idx *shard.Index, want map[int64]*rankings.Ranking, unknown map[int64]bool) {
	got, _ := idx.Snapshot()
	seen, wrong := 0, []int64{}
	for _, r := range got {
		if unknown[r.ID] {
			continue
		}
		if w, ok := want[r.ID]; ok && slices.Equal(w.Items, r.Items) {
			seen++
		} else {
			wrong = append(wrong, r.ID)
		}
	}
	tl.check(len(wrong) == 0 && seen == len(want),
		"recovered index holds %d of %d acknowledged rankings and %d unacknowledged ones (first %v)", seen, len(want), len(wrong), wrong[:min(len(wrong), 5)])
}

// latencies returns the latency in ms of every op of the given kinds.
func latencies(ops []op, outs []outcome, kinds ...opKind) (ms []float64, failed int) {
	for i := range ops {
		if !slices.Contains(kinds, ops[i].kind) {
			continue
		}
		if outs[i].err != nil {
			failed++
			continue
		}
		ms = append(ms, float64(outs[i].latency(ops[i].due))/1e6)
	}
	return ms, failed
}

// countOutcomes adds the ops to the tally, one failure per failed op.
func countOutcomes(tl *tally, ops []op, outs []outcome) {
	for i := range ops {
		if outs[i].err != nil {
			tl.fail("%s due %v: %v", opPaths[ops[i].kind], ops[i].due, outs[i].err)
			continue
		}
		tl.ok(1)
	}
}
