package main

import (
	"bufio"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"peering/internal/telemetry"
)

// sample is one latency observation in milliseconds, weighted by the
// number of routes it stands for (an UPDATE carrying 40 NLRIs is 40
// route deliveries landing at the same instant).
type sample struct {
	ms float64
	w  float64
}

// quantile returns the weighted q-quantile of s (sorted in place) and
// 0 for an empty set.
func quantile(s []sample, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	var total float64
	for _, x := range s {
		total += x.w
	}
	target, acc := q*total, 0.0
	for _, x := range s {
		acc += x.w
		if acc >= target {
			return x.ms
		}
	}
	return s[len(s)-1].ms
}

// median of xs (copied, not reordered); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promValues parses the registry's text exposition into
// "name{labels}" → value, the only public read path for histograms and
// counters the server does not surface through Stats.
func promValues(reg *telemetry.Registry) map[string]float64 {
	var b strings.Builder
	reg.WriteTo(&b)
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// memSnap is the runtime's memory and GC accounting at one instant.
type memSnap struct {
	totalAlloc uint64
	pauseNs    uint64
	numGC      uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

// settledHeap collects garbage twice (the first cycle can leave
// objects freed during it for the next) and returns the live heap.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapPerRoute is the settled heap's growth since base, per route.
func heapPerRoute(base uint64, routes int) float64 {
	return ratio(float64(int64(settledHeap())-int64(base)), float64(routes))
}

// heapSampler tracks the peak of the live-object heap while a timed
// event runs (traced runs only: it wakes every 2ms).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw, less the
// ballast, which is live heap but not the mux's.
func (h *heapSampler) finish() uint64 {
	if h == nil {
		return 0
	}
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak - ballastBytes
}
