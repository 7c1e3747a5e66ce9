// Command perfbench is the repository benchmark. Each workload runs the
// whole system over one seeded data regime: the paper's four distributed
// self-joins (VJ, VJ-NL, CL, CL-P) on the embedded engine, and an
// open-loop read/write mix against rankserved's HTTP server with its WAL
// and group commit on. It checks every output against a brute-force
// oracle and prints one JSON result line.
//
//	go run . -workload join-orku-hi -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics, timed with no
// tracer attached; each timing is a quiet median (see steal.go). With
// -trace 1 it holds the per-layer metrics, taken
// from engine spans, result ledgers and direct calls into each layer.
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// watchdog bounds a run, which must end within three minutes.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name from workloads.json")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	wl, err := loadWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The run's WAL and scratch files go under $TMPDIR.
	dir, err := os.MkdirTemp("", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	// The watchdog turns a hung run (the known two-phase kNN deadlock
	// is one way to get one) into a diagnosable failure: it dumps every
	// goroutine and exits non-zero without printing a result.
	dog := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v; goroutines follow\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer dog.Stop()

	r := &runner{wl: wl, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir}
	metrics := r.execute()

	st := stamp(*seed, dir)
	st["steal_share"] = r.clock.share()
	line, _ := json.Marshal(map[string]any{"stamp": st})
	fmt.Println(string(line))
	for _, msg := range r.tally.failures() {
		fmt.Fprintln(os.Stderr, "FAIL:", msg)
	}
	res := result{
		Correct:   r.tally.failed() == 0,
		Attempted: r.tally.attempted(),
		Failed:    r.tally.failed(),
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Workload is one entry of workloads.json plus the serving traffic
// that all workloads share.
type Workload struct {
	Name    string  `json:"name"`
	Profile string  `json:"profile"`
	N       int     `json:"n"`
	K       int     `json:"k"`
	Theta   float64 `json:"theta"`
	// JoinShare and NominalShare are the shares of the measured seconds
	// spent on joins and on serving at the nominal rates.
	JoinShare    float64 `json:"join_share"`
	NominalShare float64 `json:"nominal_share"`
	// QueryZipf is the Zipf exponent (above 1) of query repetition
	// over the pool; 0 draws uniformly.
	QueryZipf float64     `json:"query_zipf"`
	Serve     ServeConfig `json:"-"`
}

// ServeConfig fixes the serving traffic. Rates are absolute constants,
// never derived from a capacity probe.
type ServeConfig struct {
	SearchQPS float64 `json:"search_qps"`
	KNNQPS    float64 `json:"knn_qps"`
	InsertQPS float64 `json:"insert_qps"`
	DeleteQPS float64 `json:"delete_qps"`
	KNNK      int     `json:"knn_k"`
	// QueryPool is the number of distinct query rankings; the
	// 1024-entry query cache holds a quarter of a 4096 pool.
	QueryPool int `json:"query_pool"`
	// RungShare is the share of the measured seconds spent on each
	// ladder rung.
	RungShare float64 `json:"rung_share"`
	// LadderReadQPS are the read rates tried, in order, for
	// read_qps_max; writes stay at their nominal rates.
	LadderReadQPS []float64 `json:"ladder_read_qps"`
	P99LimitMs    float64   `json:"p99_limit_ms"`
	// CheckEvery verifies every Nth read against a brute-force answer.
	CheckEvery int `json:"check_every"`
}

//go:embed workloads.json
var workloadsJSON []byte

func loadWorkload(name string) (Workload, error) {
	var cfg struct {
		Serving   ServeConfig `json:"serving"`
		Workloads []Workload  `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return Workload{}, fmt.Errorf("workloads.json: %w", err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		if w.Name == name {
			w.Serve = cfg.Serving
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tally counts operations attempted and failed across the run; a
// failed correctness check counts as a failed operation.
type tally struct {
	mu     sync.Mutex
	tried  int64
	bad    int64
	errors []string
}

func (t *tally) ok(n int64) {
	t.mu.Lock()
	t.tried += n
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.tried++
	t.bad++
	if len(t.errors) < 20 {
		t.errors = append(t.errors, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one verification and records a failure when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.ok(1)
		return
	}
	t.fail(format, args...)
}

func (t *tally) attempted() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.tried }
func (t *tally) failed() int64    { t.mu.Lock(); defer t.mu.Unlock(); return t.bad }
func (t *tally) failures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.errors...)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
