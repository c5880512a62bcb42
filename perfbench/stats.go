package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// clockBase anchors every timestamp the benchmark takes: times are monotonic
// nanoseconds since process start, which also makes clockBase the origin of
// the first set-up's clock.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// wallAt converts a benchmark timestamp back to a time.Time (for
// deadlines handed to the program).
func wallAt(ns int64) time.Time { return clockBase.Add(time.Duration(ns)) }

// mix is splitmix64's finalizer: the seeded source of every payload and
// think time, so one seed always yields the same inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream owned by one goroutine.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream ...uint64) *rng {
	s := mix(seed)
	for _, x := range stream {
		s = mix(s ^ x)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// counter is a cache-line padded atomic counter written by one goroutine
// and read by the sampler, so per-goroutine tallies never share a line.
type counter struct {
	n atomic.Int64
	_ [56]byte
}

// Histogram geometry: 64 linear sub-buckets per power of two (under 1.6%
// relative width), exact below 64 ns, up to 2^40 ns.
const (
	subBits  = 6
	subCount = 1 << subBits
	maxExp   = 40
	nBuckets = (maxExp - subBits + 1) * subCount
)

// hist is a log-linear latency histogram owned by one goroutine.
// Percentiles interpolate inside a bucket, so they read as measured
// rather than snapped to bucket edges.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1
	s := k - subBits
	b := (s+1)*subCount + int(uint64(v)>>s) - subCount
	if b >= nBuckets {
		return nBuckets - 1
	}
	return b
}

func bucketRange(b int) (low, width float64) {
	if b < subCount {
		return float64(b), 1
	}
	g := b / subCount
	off := b % subCount
	s := g - 1
	return float64(uint64(subCount+off) << s), float64(uint64(1) << s)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in the recorded unit, or NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, w := bucketRange(b)
			return low + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, w := bucketRange(nBuckets - 1)
	return low + w
}

// log2Quantile interpolates a quantile from the program's own log₂-ns
// histogram buckets (bucket 0 holds zeros, bucket i covers
// [2^(i-1), 2^i - 1]), so the value is not snapped to a power of two.
func log2Quantile(buckets []int64, q float64) float64 {
	var n int64
	for _, c := range buckets {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			low := math.Ldexp(1, i-1)
			return low + low*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Ldexp(1, len(buckets)-1)
}

// median returns the median of xs (NaN when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest tenth;
// xs is reordered.
func trimmedMean(xs []float64) float64 {
	sort.Float64s(xs)
	k := len(xs) / 10
	xs = xs[k : len(xs)-k]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// exactQuantile returns the q-quantile of xs by nearest rank; xs is
// reordered.
func exactQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
