package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings in one unit.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// tail describes a reported percentile: its sample count and how many
// samples lie beyond it. A percentile is only reported once at least
// ten samples lie beyond it.
func (s samples) tail(name string, q float64) string {
	beyond := len(s) - int(math.Ceil(q*float64(len(s))))
	ok := "ok"
	if beyond < 10 {
		ok = "TOO FEW"
	}
	return fmt.Sprintf("%s: n=%d, %d beyond p%g (%s); p50 %.4g p90 %.4g p95 %.4g p99 %.4g max %.4g",
		name, len(s), beyond, 100*q, ok, s.quantile(0.5), s.quantile(0.9), s.quantile(0.95), s.quantile(0.99), s.quantile(1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// splitmix64 is the mixing function behind derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simSeed derives the simulator seed of one repetition from the
// workload seed: every repetition simulates fresh instruction streams,
// so no result or stream can be reused across repetitions.
func simSeed(seed int64, rep int) int64 {
	return int64(splitmix64(uint64(seed)*1_000_003+uint64(rep))>>33) + 1
}
