package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runEnv describes the box and build a run measured, so numbers from
// different machines are never compared unknowingly.
type runEnv struct {
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	UlimitN    uint64 `json:"ulimit_n"`
	Commit     string `json:"commit"`
}

func collectEnv(seed uint64) runEnv {
	e := runEnv{
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) == nil {
		e.UlimitN = lim.Cur
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// probe samples goroutine and file-descriptor counts every 5ms for the
// whole run, so short-lived peaks inside a sort are seen.
type probe struct {
	gMax, fdMax atomic.Int64
	done        chan struct{}
	wg          sync.WaitGroup
}

func startProbe() *probe {
	p := &probe{done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *probe) sample() {
	if g := int64(runtime.NumGoroutine()); g > p.gMax.Load() {
		p.gMax.Store(g)
	}
	if fd := int64(openFDs()); fd > p.fdMax.Load() {
		p.fdMax.Store(fd)
	}
}

func (p *probe) stop() {
	close(p.done)
	p.wg.Wait()
}

func (p *probe) goroutinesMax() int64 { return p.gMax.Load() }
func (p *probe) fdsMax() int64        { return p.fdMax.Load() }

// allocStats snapshots the runtime's cumulative allocation and GC pause
// counters; the difference of two snapshots covers the ops between them.
type allocStats struct {
	totalAlloc uint64
	pauseNs    uint64
}

func readAllocStats() allocStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocStats{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// setRuntimeMetrics records allocation and GC pause per op between two
// snapshots.
func (b *bench) setRuntimeMetrics(before, after allocStats, ops int) {
	if ops == 0 {
		return
	}
	b.m.set("runtime.alloc_mb_per_op", mb(int64(after.totalAlloc-before.totalAlloc))/float64(ops))
	b.m.set("runtime.gc_pause_s", float64(after.pauseNs-before.pauseNs)/1e9/float64(ops))
}
