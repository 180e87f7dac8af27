package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heapSampler records the peak Go heap in use (objects live or not yet
// swept) while the timed window runs. The live heap the last GC found
// changes only once per GC, and on games-cold, whose live heap is about
// 2 MiB, its peak spread by 0.27 of its median from run to run; the
// heap in use peaks near the GC goal, which follows the live heap.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapInUseMetric = "/memory/classes/heap/objects:bytes"

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readUint(heapInUseMetric)}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				v := readUint(heapInUseMetric)
				h.mu.Lock()
				if v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	if v := readUint(heapInUseMetric); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system, from the kernel
	allocs   uint64        // bytes allocated on the Go heap
	gcCPU    float64       // Go runtime's GC CPU seconds estimate
	totalCPU float64       // Go runtime's total CPU seconds estimate
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{
		wall:     time.Now(),
		cpu:      cpu,
		allocs:   readUint("/gc/heap/allocs:bytes"),
		gcCPU:    readFloat("/cpu/classes/gc/total:cpu-seconds"),
		totalCPU: readFloat("/cpu/classes/total:cpu-seconds"),
	}
}

// runtimeMetrics derives the runtime rows over [a, b] with ops
// operations done in it.
func runtimeMetrics(a, b usage, ops int, m metricSet) {
	if ops < 1 {
		ops = 1
	}
	m.add("runtime.alloc_bytes_per_op", float64(b.allocs-a.allocs)/float64(ops), "B")
	gc := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gc = (b.gcCPU - a.gcCPU) / d
	}
	m.add("runtime.gc_cpu_frac", gc, "ratio")
	wall := b.wall.Sub(a.wall).Seconds() * float64(runtime.GOMAXPROCS(0))
	m.add("search.cpu_busy_frac", (b.cpu-a.cpu).Seconds()/wall, "ratio")
}

// calibrate times a fixed CPU-bound loop (SHA-256 over a fixed buffer)
// and returns the fastest of five tries in milliseconds. Run before and
// after the workloads, it shows how fast this host was at the time and
// whether it drifted during the run.
func calibrate() float64 {
	buf := make([]byte, 1<<16)
	for i := range buf {
		buf[i] = byte(i)
	}
	best := time.Duration(1 << 62)
	for try := 0; try < 5; try++ {
		t := time.Now()
		sum := sha256.Sum256(buf)
		for i := 0; i < 100; i++ {
			copy(buf, sum[:])
			sum = sha256.Sum256(buf)
		}
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return ms(best)
}

// sourceDigest identifies the code under test when no version-control
// metadata is available: a SHA-256 over every Go source and module
// file of the repository outside the benchmark's own directory and
// build outputs, in path order.
func sourceDigest(root, benchDir string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not count
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || p == benchDir) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00" + strconv.Itoa(len(data)) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// phaseQuantile estimates a quantile of one span histogram by linear
// interpolation inside the bucket that holds it, in seconds. Buckets
// are cumulative with "+Inf" last; ok is false when the phase has no
// samples.
func phaseQuantile(stats []phaseStatT, phase string, q float64) (float64, bool) {
	var counts []uint64
	var bounds []float64
	for _, ps := range stats {
		if ps.Phase != phase {
			continue
		}
		for i, b := range ps.Buckets {
			le := 1e9
			if b.LE != "+Inf" {
				le, _ = strconv.ParseFloat(b.LE, 64)
			}
			if i >= len(counts) {
				counts = append(counts, 0)
				bounds = append(bounds, le)
			}
			counts[i] += b.Count
		}
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0, false
	}
	target := q * float64(counts[len(counts)-1])
	lo, prev := 0.0, uint64(0)
	for i, c := range counts {
		if float64(c) >= target {
			hi := bounds[i]
			if hi >= 1e9 { // beyond the last finite bound: report that bound
				return lo, true
			}
			in := float64(c - prev)
			if in == 0 {
				return hi, true
			}
			return lo + (hi-lo)*(target-float64(prev))/in, true
		}
		lo, prev = bounds[i], c
	}
	return lo, true
}
