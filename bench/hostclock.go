package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The host this benchmark was built on is a 2-vCPU VM whose neighbours
// slow it by 20–45% for minutes at a time, and CPU time grows with wall
// time, so neither is steady on its own. A run therefore also times a
// fixed reference computation, independent of the program and of its
// heap, and reports its end-to-end times in reference-host seconds:
//
//	reported = measured × refSeconds ÷ (median reference time in this run)
//
// Wall times are divided by the reference's wall time, CPU times by its
// CPU time. README.md ("Reference-host seconds") gives the spreads of the
// measured and the reported times over the same runs.

// refSeconds is the reference computation's median time on the quiet host,
// which makes a reported second a wall second there.
const refSeconds = 0.024

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's CPU time.
const rusageThread = 1

// hostClock collects the run's timings of the reference computation.
type hostClock struct {
	buf       []float64
	table     []uint64
	wall, cpu []float64 // each probe's wall time and its thread's CPU time, s
}

func newHostClock() *hostClock {
	return &hostClock{buf: make([]float64, 200_000), table: make([]uint64, 1<<20)}
}

// probe times one reference computation: sort 200k pseudo-random floats,
// then 400k pseudo-random increments into an 8 MB table. It allocates
// nothing, so it never waits on the program's garbage collector. It is
// not safe for concurrent use.
func (h *hostClock) probe() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t := threadCPU(), time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h.buf {
		h.buf[i] = float64(next()>>11) / (1 << 53)
	}
	sort.Float64s(h.buf)
	mask := uint64(len(h.table) - 1)
	for i := 0; i < 400_000; i++ {
		h.table[next()&mask] += uint64(i)
	}
	h.wall = append(h.wall, time.Since(t).Seconds())
	h.cpu = append(h.cpu, threadCPU()-c0)
}

// threadCPU is the calling thread's user+sys CPU time; NaN when the kernel
// cannot say, which fails the run's metrics rather than skewing them.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// normalize converts the run's end-to-end times to reference-host seconds.
// The measured times go to out.raw (kept in --out records) and, with the
// reference's wall time, to the per-layer metrics.
func (h *hostClock) normalize(out *outcome, logf func(string, ...interface{})) {
	wall, cpu := median(h.wall), median(h.cpu)
	logf("reference computation %.2f ms wall, %.2f ms CPU (median of %d); measured job %.4f s, setup %.4f s",
		1e3*wall, 1e3*cpu, len(h.wall), out.e2e["job_s"], out.e2e["setup_s"])
	out.raw = map[string]float64{}
	for _, m := range []struct {
		name string
		ref  float64
	}{{"job_s", wall}, {"cpu_s_per_job", cpu}, {"setup_s", wall}} {
		if v, ok := out.e2e[m.name]; ok {
			out.raw[m.name] = v
			out.e2e[m.name] = v * refSeconds / m.ref
		}
	}
	out.layer["host.ref_ms"] = 1e3 * wall
	out.layer["job_wall_s"] = out.raw["job_s"]
	out.layer["setup_wall_s"] = out.raw["setup_s"]
}
