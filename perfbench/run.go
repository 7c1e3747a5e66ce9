package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin"
	"rankjoin/internal/rankings"
)

// runner executes one run of one workload.
type runner struct {
	wl      Workload
	seed    int64
	seconds float64
	traced  bool
	dir     string
	tally   tally

	rs    []*rankings.Ranking
	eng   *rankjoin.Engine
	srv   *served
	clock *stealClock
}

func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 31

// setup generates the dataset, builds the engine and boots the server
// setupReps times, keeping the last, and returns the quiet median time.
func (r *runner) setup() (float64, error) {
	var times []timed
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		rs, err := generate(r.wl, r.seed)
		if err != nil {
			return 0, err
		}
		eng := rankjoin.NewEngine(rankjoin.EngineConfig{})
		srv, err := boot(filepath.Join(r.dir, fmt.Sprintf("wal-%d", i)), rs)
		if err != nil {
			eng.Close()
			return 0, err
		}
		times = append(times, timed{time.Since(t0).Seconds(), r.clock.charge(t0, time.Now())})
		if i < setupReps-1 {
			eng.Close()
			if err := srv.close(); err != nil {
				return 0, err
			}
			os.RemoveAll(srv.walDir)
			continue
		}
		r.rs, r.eng, r.srv = rs, eng, srv
	}
	return quiet("setup_s", times), nil
}

// execute runs the workload and returns its metrics: end-to-end
// metrics untraced, or per-layer metrics when traced.
func (r *runner) execute() map[string]metric {
	out := map[string]metric{}
	r.clock = startStealClock()
	defer r.clock.stop()
	setupS, err := r.setup()
	if err != nil {
		r.tally.fail("setup: %v", err)
		return out
	}
	defer r.eng.Close()
	peak := startHeapPeak()
	defer peak.stop()
	r.tally.ok(setupReps)

	theta := r.wl.Theta
	// A traced round runs every join twice; half the join budget keeps
	// a traced run, which also probes the layers and climbs the ladder,
	// about as long as an untraced one.
	budget, minRounds := r.share(r.wl.JoinShare), 3
	if r.traced {
		budget, minRounds = budget/2, 2
	}
	plain, traced := joinRounds(r.eng, r.rs, theta, budget, minRounds, r.traced, peak, &r.tally)
	r.tally.ok(int64(len(plain) + len(traced)))

	var lp *layerProbe
	if r.traced {
		lp = r.probeLayers()
	}
	sv := r.serve()
	oracle := checkJoins(&r.tally, r.rs, theta, plain, traced)

	if !r.traced {
		out["setup_s"] = metric{setupS, "s"}
		for _, alg := range algorithms {
			var times []timed
			for _, jr := range plain {
				if jr.alg == alg {
					times = append(times, timed{jr.seconds, r.clock.charge(jr.from, jr.to)})
				}
			}
			if len(times) > 0 {
				out["join_s."+alg.String()] = metric{quiet("join_s."+alg.String(), times), "s"}
			}
		}
		// The heap peaks inside joins. The median per algorithm keeps
		// one collection that happens to fall late from setting it.
		peakMB := 0.0
		for _, v := range byAlg(plain, func(jr joinRun) float64 { return jr.heapMB }) {
			peakMB = max(peakMB, v)
		}
		out["peak_heap_mb"] = metric{peakMB, "MB"}
		sv.endToEnd(out, r.clock)
		return out
	}
	r.layerMetrics(out, plain, traced, oracle, lp, sv)
	return out
}

// heapPeak samples the heap every millisecond and keeps the peak of
// each window between two calls to take.
type heapPeak struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				cur := h.peak.Load()
				if v <= cur || h.peak.CompareAndSwap(cur, v) {
					break
				}
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in MB since the last take and opens a new
// window.
func (h *heapPeak) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

func (h *heapPeak) stop() {
	close(h.quit)
	h.wg.Wait()
}
