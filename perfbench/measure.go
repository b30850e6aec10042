package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// digest is all the benchmark keeps of a result: its size and an
// order-independent fingerprint (a sum of per-pair hashes), so results
// of any type and in any order compare equal exactly when they hold the
// same pairs.
type digest struct {
	N  int    `json:"n"`
	FP uint64 `json:"fp"`
}

func (d *digest) add(src, dst int32) {
	x := uint64(uint32(src))<<32 | uint64(uint32(dst))
	// splitmix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	d.N++
	d.FP += x ^ (x >> 31)
}

// seqDigest folds an ordered list of digests (one per query of a set)
// into one, so a set's fingerprint also pins which query gave which
// answer.
func seqDigest(ds []digest) digest {
	var out digest
	for _, d := range ds {
		out.N += d.N
		out.FP = (out.FP^d.FP)*0x100000001b3 + uint64(d.N)
	}
	return out
}

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile by linear interpolation between
// order statistics; 0 for an empty sample.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// allocMeter measures bytes allocated by the whole process over an
// interval (runtime TotalAlloc).
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

func (a allocMeter) bytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - a.start
}

// heapSampler reads, every 100 ms, the live heap the runtime measured
// at its latest collection. Its median over a timed phase is steadier
// than one forced collection at the end, which sees whatever the last
// operation happened to leave cached.
type heapSampler struct {
	stop, done chan struct{}
	mb         samples
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.mb = append(h.mb, float64(sample[0].Value.Uint64())/(1<<20))
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median live heap in MB.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	return h.mb.quantile(0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
