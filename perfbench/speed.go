package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// The shared host the benchmark runs on changes speed from one second
// to the next, because other tenants share its cores: within one table4
// run, repetitions of the same work ran at 600 to 2400 kinst/s, the
// host flipping between a fast and a slow state every few seconds, and
// warm engine hits took 0.8 µs in one state and 1.8 µs in the other.
// Raw timings of unchanged code then spread across runs by more than
// any change worth measuring (IQR/median over six table4 seeds: 0.34
// for sim_kips, 0.51 for the batch hit median).
//
// Every timing an end-to-end metric is built from is therefore scaled
// to a reference host speed. A reference kernel, fixed Go code that
// calls nothing in the repository, is timed right before and right
// after each measured segment (a repetition, or a group of set-ups),
// and the segment's durations are multiplied by
// nominal / mean(kernel before, kernel after); its rates are divided
// by the same factor. A slower program still reads slower: a kernel
// never runs while the program is being measured.
//
// There are two kernels, one per kind of work measured:
//
//   - The CPU kernel scales the simulation, engine-hit and service
//     timings. Among the kernels tried, this mix of independent integer
//     lanes over an L1-resident table, string-keyed map lookups and
//     byte-string searches slowed down with the host the way the
//     simulator and its memo hits did (log-log slope 1.0, correlation
//     0.8 over 114 repetitions), and it brought the two spreads above
//     to about 0.1. Memory-latency-bound kernels tracked the host's
//     state too but moved only half as much. It allocates nothing and
//     keeps its table off the Go heap, so it neither counts toward
//     retained_heap_mib nor changes how often the program collects.
//   - The file-system kernel scales setup_s. Constructing the service
//     stack is mostly file-system metadata work (data directory, store,
//     journal), whose speed swings apart from the CPU's: over 80 set-up
//     groups the set-up time correlated 0.83 with this kernel and 0.31
//     with the CPU kernel, and the scaled medians of five runs across
//     two workloads lay within 12% of each other where the raw ones
//     spread from 126 to 293 µs.

// The kernels' times on the reference host (2 vCPUs, Xeon 2.1 GHz) in
// its fast state: a host on which a kernel takes this long reports
// unscaled timings.
const (
	cpuNominalMS = 20.0
	fsNominalMS  = 6.0
)

// Sizes of the reference kernel.
const (
	refTableWords = 1 << 12 // 32 KiB of uint64
	refLaneIters  = 1_500_000
	refMapIters   = 500_000
	refStrIters   = 400_000
	refFSIters    = 60
)

// refKeys are the reference kernel's map keys and search texts.
var refKeys = func() []string {
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d/scheme-%d/width-%d", i, i*7%10, 4+i%2*4)
	}
	return keys
}()

// refKernel holds the reference kernel's state, built once so that a
// timed pass neither allocates nor builds anything. Its table lives
// outside the Go heap, so it neither counts toward retained_heap_mib
// nor changes the GC's heap goal and so how often the measured program
// collects.
type refKernel struct {
	table []uint64
	index map[string]int
	buf   []byte
	sink  uint64
}

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, 8*refTableWords,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel table: %w", err)
	}
	k := &refKernel{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refTableWords),
		index: make(map[string]int, len(refKeys)),
		buf:   make([]byte, 0, 64),
	}
	for i, key := range refKeys {
		k.index[key] = i
	}
	return k, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// lanes runs four independent xorshift lanes that update the table.
func (k *refKernel) lanes() uint64 {
	const mask = refTableWords - 1
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refLaneIters; i++ {
		a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
		k.table[a&mask] += b
		k.table[c&mask] ^= d
		k.table[(b>>20)&mask] += c
	}
	return k.table[a&mask]
}

// lookups looks the keys up in the map, round robin.
func (k *refKernel) lookups() uint64 {
	n := 0
	for i := 0; i < refMapIters; i++ {
		n += k.index[refKeys[i%len(refKeys)]]
	}
	return uint64(n)
}

var refNeedle = []byte("width")

// searches copies each key into a buffer and searches it.
func (k *refKernel) searches() uint64 {
	n := 0
	for i := 0; i < refStrIters; i++ {
		k.buf = append(append(k.buf[:0], refKeys[i%len(refKeys)]...), '/')
		n += bytes.Index(k.buf, refNeedle)
	}
	return uint64(n)
}

// time runs the kernel once and returns its duration in milliseconds.
func (k *refKernel) time() float64 {
	t0 := time.Now()
	x := k.lanes() ^ k.lookups() ^ k.searches()
	d := time.Since(t0)
	k.sink += x
	return ms(d)
}

// fsKernel creates and removes a directory holding one small file,
// refFSIters times, in a fresh temporary directory, and returns the
// duration in milliseconds. The temporary directory is made and removed
// outside the timing.
func fsKernel() (float64, error) {
	dir, err := os.MkdirTemp("", "refkernel-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	sub := filepath.Join(dir, "d")
	file := filepath.Join(sub, "f")
	t0 := time.Now()
	for i := 0; i < refFSIters; i++ {
		if err := os.Mkdir(sub, 0o755); err != nil {
			return 0, err
		}
		if err := os.WriteFile(file, refNeedle, 0o644); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(sub); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)), nil
}

// gauge brackets measured segments with runs of one reference kernel
// and keeps every segment's scale factor for the summary. A kernel
// error is kept in err, and the factor of its segment is NaN.
type gauge struct {
	name    string
	kernel  func() (float64, error)
	nominal float64
	before  float64
	factors samples
	err     error
}

func (g *gauge) run() float64 {
	d, err := g.kernel()
	if err != nil {
		if g.err == nil {
			g.err = fmt.Errorf("%s reference kernel: %w", g.name, err)
		}
		return math.NaN()
	}
	return d
}

// begin times the kernel just before a measured segment.
func (g *gauge) begin() { g.before = g.run() }

// end times the kernel just after a measured segment and returns the
// segment's scale factor: multiply its durations by it, divide its
// rates by it. The same kernel run also begins the next segment, so
// back-to-back segments share it.
func (g *gauge) end() float64 {
	after := g.run()
	f := g.nominal / ((g.before + after) / 2)
	g.before = after
	g.factors = append(g.factors, f)
	return f
}

func (g *gauge) summary() string {
	return fmt.Sprintf("%s speed factor (durations multiplied by it): n=%d, min %.3f median %.3f max %.3f",
		g.name, len(g.factors), g.factors.quantile(0), g.factors.median(), g.factors.quantile(1))
}

// gauges are a run's two reference kernels.
type gauges struct{ cpu, fs *gauge }

func newGauges() (gauges, error) {
	k, err := newRefKernel()
	if err != nil {
		return gauges{}, err
	}
	return gauges{
		cpu: &gauge{name: "cpu", kernel: func() (float64, error) { return k.time(), nil }, nominal: cpuNominalMS},
		fs:  &gauge{name: "file-system", kernel: fsKernel, nominal: fsNominalMS},
	}, nil
}

// scale multiplies every sample from index from on by f.
func (s samples) scale(from int, f float64) {
	for i := from; i < len(s); i++ {
		s[i] *= f
	}
}
