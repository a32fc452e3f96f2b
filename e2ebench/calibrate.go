package main

import (
	"math/rand"
	"sort"
	"time"
)

// calNominal is the calibration step's fast time (its 25th percentile)
// on the reference host, a 2-vCPU Xeon VM. Host times are reported at
// that host's speed: each is multiplied by calNominal over the fast time
// the calibration step measured beside it.
const calNominal = 2100 * time.Microsecond

// calibration is a fixed CPU- and cache-bound task that shares no code or
// data with the simulator. The benchmark runs one step of it after every
// span of a timed run, so its times sample the host's speed at the same
// moments as the simulator's.
//
// On a shared host the speed of a core drifts by ±25% over tens of
// seconds, and the simulator's times drift with it. Sort and map work
// drifts the same way, while DRAM latency on the reference host stays
// steady, so a step is sort and map work that stays in the core's own
// caches. It allocates nothing and writes no pointers, so the program's
// heap and garbage collection do not slow it.
type calibration struct {
	src, buf []int
	counts   map[int]int
	times    []float64 // seconds, one per step
}

func newCalibration() *calibration {
	r := rand.New(rand.NewSource(1))
	c := &calibration{src: make([]int, 20000), buf: make([]int, 20000), counts: make(map[int]int, 1<<14)}
	for i := range c.src {
		c.src[i] = r.Int()
	}
	c.step() // size the map before any step is timed
	c.times = c.times[:0]
	return c
}

// step sorts a copy of 20,000 random integers and counts 10,000 of them
// by their low 16 bits in a map, and records its host time.
func (c *calibration) step() {
	t0 := time.Now()
	copy(c.buf, c.src)
	sort.Ints(c.buf)
	clear(c.counts)
	for i := 0; i < 10000; i++ {
		c.counts[c.buf[(i*7919)%len(c.buf)]&0xffff] += i
	}
	c.times = append(c.times, time.Since(t0).Seconds())
}

// scale is the factor that turns a host time measured beside the steps
// into a time at the reference host's speed.
func (c *calibration) scale() float64 {
	return calNominal.Seconds() / quantile(c.times, 0.25)
}
