package main

import (
	"runtime"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// positions collects samples per position of a round: the round's k-th
// operation always lands in the same slot, so a round's cost can be taken as
// the sum over positions of each position's median.
type positions map[string][][]float64

func (p positions) add(key string, pos, n int, v float64) {
	if p[key] == nil {
		p[key] = make([][]float64, n)
	}
	p[key][pos] = append(p[key][pos], v)
}

// merge adds every sample of q to p, position by position.
func (p positions) merge(q positions) {
	for key, slots := range q {
		for pos, xs := range slots {
			for _, x := range xs {
				p.add(key, pos, len(slots), x)
			}
		}
	}
}

// sumOfMedians is Σ over positions of the median of that position's samples.
func (p positions) sumOfMedians(key string) float64 {
	total := 0.0
	for _, xs := range p[key] {
		total += median(xs)
	}
	return total
}

// pooled returns every sample of key across positions.
func (p positions) pooled(key string) []float64 {
	var out []float64
	for _, xs := range p[key] {
		out = append(out, xs...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memWindow measures the Go runtime's allocation and GC activity over a
// timed window.
type memWindow struct{ before runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// perOp returns KB allocated per operation and GC cycles per 1000 operations.
func (w *memWindow) perOp(ops int64) (allocKB, gcPerKop float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops == 0 {
		return 0, 0
	}
	allocKB = float64(after.TotalAlloc-w.before.TotalAlloc) / 1024 / float64(ops)
	gcPerKop = float64(after.NumGC-w.before.NumGC) * 1000 / float64(ops)
	return allocKB, gcPerKop
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
