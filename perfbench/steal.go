package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can hold a vCPU that has work to
// do; Linux counts that time as steal (the eighth column of the cpu
// line of /proc/stat). On a shared two-vCPU host, runs of the same code
// that met 15-20% steal read 1.3 to 1.7 times slower on every timing
// metric, so steal, not the program, set the spread between runs.
// stealClock samples the steal counter, each timed sample is charged
// with the rate of steal while it ran, and the set-up, join and p50
// latency metrics are taken over the samples charged with no more
// steal than the median sample (see quiet). On a host without steal
// every sample is kept.
type stealClock struct {
	quit chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex
	at          []time.Time
	steal, busy []uint64 // cumulative steal and all-CPU ticks at each sample
}

// stealTick is the sampling period; the counter itself moves in ticks
// of 10 ms of one CPU.
const stealTick = 20 * time.Millisecond

func startStealClock() *stealClock {
	c := &stealClock{quit: make(chan struct{})}
	c.sample()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(stealTick)
		defer tick.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) stop() {
	close(c.quit)
	c.wg.Wait()
	c.sample()
}

func (c *stealClock) sample() {
	c.mu.Lock()
	c.sampleLocked()
	c.mu.Unlock()
}

func (c *stealClock) sampleLocked() {
	steal, total := readStat()
	c.at = append(c.at, time.Now())
	c.steal = append(c.steal, steal)
	c.busy = append(c.busy, total)
}

// charge returns the steal ticks per second between the last sample
// at or before from and the first sample at or after to. A rate, not a
// count, so that a long sample is not set aside for being long.
func (c *stealClock) charge(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at[len(c.at)-1].Before(to) {
		c.sampleLocked()
	}
	i, _ := slices.BinarySearchFunc(c.at, from, func(t, x time.Time) int { return t.Compare(x) })
	if i == len(c.at) || c.at[i].After(from) {
		i = max(i-1, 0)
	}
	j, _ := slices.BinarySearchFunc(c.at, to, func(t, x time.Time) int { return t.Compare(x) })
	j = min(j, len(c.at)-1)
	if j <= i {
		return 0
	}
	return float64(c.steal[j]-c.steal[i]) / c.at[j].Sub(c.at[i]).Seconds()
}

// share is the fraction of all CPU time that was stolen since the
// clock started.
func (c *stealClock) share() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.at) - 1
	if n < 1 || c.busy[n] == c.busy[0] {
		return 0
	}
	return float64(c.steal[n]-c.steal[0]) / float64(c.busy[n]-c.busy[0])
}

// readStat returns the cumulative steal ticks and all ticks of the cpu
// line of /proc/stat, or zeros where it cannot be read.
func readStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// timed is one timed sample and the steal charged to it.
type timed struct {
	value float64
	steal float64 // ticks per second
}

// quiet returns the median of the samples charged with no more steal
// than the median sample, and reports it on standard error next to the
// median over every sample.
func quiet(name string, xs []timed) float64 {
	if len(xs) == 0 {
		return 0
	}
	steals := make([]float64, len(xs))
	all := make([]float64, len(xs))
	for i, x := range xs {
		steals[i], all[i] = float64(x.steal), x.value
	}
	limit := median(steals)
	var kept []float64
	for _, x := range xs {
		if x.steal <= limit {
			kept = append(kept, x.value)
		}
	}
	m := median(kept)
	fmt.Fprintf(os.Stderr, "steal: %s median %.6g over %d of %d samples (at most %.3g steal ticks/s each); %.6g over all\n",
		name, m, len(kept), len(xs), limit, median(all))
	return m
}
