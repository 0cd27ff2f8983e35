package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"pgxsort"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/spill"
)

// Input sizes of the batch workloads.
const (
	residentN = 4_000_000
	recordsN  = 2_000_000
	outOfCore = 1_000_000
	// setupReps is how many times a run builds its cluster or daemon to
	// time set-up; the median is reported.
	setupReps = 41
)

// entryBytes is the in-memory size of one sort entry, the unit the
// engine's memory accounting uses.
const entryBytes = int64(unsafe.Sizeof(comm.Entry[uint64]{}))

// genKeys draws n keys of one distribution from the run's seed. Each
// stream gets its own sub-seed so workloads never share inputs.
func genKeys(kind dist.Kind, seed, stream uint64, n int) []uint64 {
	return dist.Gen{Kind: kind, Seed: seed*1_000_003 + stream}.Keys(n)
}

func sortedCopy[K uint64 | string](xs []K) []K {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// timeSetup builds the workload's system setupReps times, closing all
// but the last, and records the median build time as setup_s. Each build
// starts from a collected heap: otherwise a collection paced by the
// run's input generation and the discarded builds lands on some builds
// and not others, and the median jumps between two modes from run to run
// (about 1.2 and 3 ms for the TCP mesh).
func timeSetup[T any](b *bench, build func() (T, error), closeFn func(T)) (T, error) {
	var last T
	ts := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		if i < setupReps-1 {
			closeFn(v)
		}
		last = v
	}
	b.m.set("setup_s", median(ts))
	return last, nil
}

// opResult is what one timed op reports back to the loop.
type opResult struct {
	d    time.Duration // the timed call(s), verification excluded
	keys int           // keys the op delivered sorted
	err  error         // verification or call failure
}

// loop runs op for the measured window after warm warm-up ops. In a
// traced run a seeded coin picks which ops are traced, so the tracing
// overhead is the difference of the two medians from one process; a coin
// rather than strict alternation keeps a garbage-collection cycle that
// recurs every other op from landing on one side only. The warm-up
// starts from a collected heap, so set-up garbage does not land in it.
func (b *bench) loop(warm int, op func(traced bool) opResult) (plain, traced []time.Duration) {
	runtime.GC()
	for i := 0; i < warm; i++ {
		b.attempts++
		if r := op(false); r.err != nil {
			b.fail("warm-up: %v", r.err)
		}
	}
	before := readAllocStats()
	keys := 0
	var busy time.Duration
	coin := dist.NewRNG(b.seed ^ 0x7ace)
	start := time.Now()
	for i := 0; time.Since(start) < b.window || len(plain) < 2 || (b.traced && len(traced) < 2); i++ {
		withTrace := b.traced && coin.Uint64()&1 == 1
		r := op(withTrace)
		b.attempts++
		if r.err != nil {
			b.fail("op %d: %v", i, r.err)
			continue
		}
		if withTrace {
			traced = append(traced, r.d)
		} else {
			plain = append(plain, r.d)
			keys += r.keys
			busy += r.d
		}
	}
	b.setRuntimeMetrics(before, readAllocStats(), len(plain)+len(traced))
	b.m.set("sort_s_p50", median(seconds(plain)))
	b.m.set("keys_per_s", float64(keys)/busy.Seconds())
	if b.traced {
		b.m.set("trace.sort_s_p50", median(seconds(traced)))
		b.m.set("trace.overhead_s", median(seconds(traced))-median(seconds(plain)))
	}
	fmt.Printf("ops: %d untraced %.3v, %d traced %.3v\n", len(plain), seconds(plain), len(traced), seconds(traced))
	return plain, traced
}

// coreMetrics records the per-layer metrics that come from the engine's
// reports: medians over the traced sorts.
func (b *bench) coreMetrics(reps []core.Report) {
	med := func(f func(r *core.Report) float64) float64 {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = f(&reps[i])
		}
		return median(xs)
	}
	step := func(s core.Step) func(r *core.Report) float64 {
		return func(r *core.Report) float64 { return r.Steps[s].Seconds() }
	}
	b.m.set("core.local_sort_s", med(step(core.StepLocalSort)))
	b.m.set("core.splitters_s", med(step(core.StepSplitters)))
	b.m.set("core.partition_s", med(step(core.StepPartition)))
	b.m.set("core.exchange_s", med(step(core.StepExchange)))
	b.m.set("core.final_merge_s", med(step(core.StepFinalMerge)))
	b.m.set("core.overlap_saved_s", med(func(r *core.Report) float64 { return r.MergeOverlapSaved.Seconds() }))
	b.m.set("core.step_cover", med(func(r *core.Report) float64 {
		var sum time.Duration
		for _, d := range r.Steps {
			sum += d
		}
		return sum.Seconds() / r.Total.Seconds()
	}))
	b.m.set("core.temp_peak_mb", med(func(r *core.Report) float64 { return mb(r.TempPeakBytes) }))
	b.m.set("core.resident_mb", med(func(r *core.Report) float64 { return mb(r.ResidentBytes) }))
	b.m.set("core.attempts", med(func(r *core.Report) float64 { return float64(r.Attempts) }))
	b.m.set("sample.balance", med(func(r *core.Report) float64 { return r.LoadImbalance() }))
	b.m.set("comm.bytes_sent", med(func(r *core.Report) float64 { return float64(r.BytesSent) }))
	b.m.set("comm.msgs_sent", med(func(r *core.Report) float64 { return float64(r.MsgsSent) }))
	b.m.set("transport.send_stall_s", med(func(r *core.Report) float64 { return r.SendStall.Seconds() }))
	b.m.set("transport.frames_resent", med(func(r *core.Report) float64 { return float64(r.FramesResent) }))
}

// tracedSort runs one engine call under an op span and lays the report's
// steps under it.
func tracedSort(b *bench, traced bool, name string, call func() (*core.Result[uint64], error)) (*core.Result[uint64], time.Duration, ref, error) {
	op := ref{}
	if traced {
		op = b.tr.op("op:" + b.workload)
	}
	sp := op.child(name, "core")
	t0 := time.Now()
	res, err := call()
	d := time.Since(t0)
	sp.end()
	if err == nil {
		sp.layReport(&res.Report)
	}
	return res, d, op, err
}

func runResidentUniform(b *bench) error {
	keys := genKeys(dist.Uniform, b.seed, 1, residentN)
	want := sortedCopy(keys)
	parts := splitEven(keys, procs)
	opts := pgxsort.Options{Procs: procs, WorkersPerProc: workers}
	c, err := timeSetup(b, func() (*pgxsort.Cluster[uint64], error) { return pgxsort.NewCluster[uint64](opts) },
		func(c *pgxsort.Cluster[uint64]) { c.Close() })
	if err != nil {
		return err
	}
	defer c.Close()

	var reps []core.Report
	plain, _ := b.loop(1, func(traced bool) opResult {
		res, d, op, err := tracedSort(b, traced, "core.Engine.Sort", func() (*core.Result[uint64], error) { return c.Sort(parts) })
		if err != nil {
			return opResult{err: err}
		}
		v := op.child("bench.verify", "bench")
		err = checkKeys(res.Parts, want)
		v.end()
		op.end()
		if traced {
			reps = append(reps, res.Report.Snapshot())
		}
		return opResult{d: d, keys: len(keys), err: err}
	})
	if !b.traced {
		return nil
	}
	b.coreMetrics(reps)
	share := keys[:len(keys)/procs]
	if err := b.replayLayers(share, comm.U64Codec{}, nil); err != nil {
		return err
	}
	if err := b.replaySpill(share); err != nil {
		return err
	}
	if err := b.replayServe(missKeys/procs, strMissKeys/procs); err != nil {
		return err
	}
	return b.refs(keys, median(seconds(plain)))
}

func runSkewedRecordsTCP(b *bench) error {
	keys := genKeys(dist.RightSkewed, b.seed, 2, recordsN)
	want := sortedCopy(keys)
	payloads := make([]byte, 16*len(keys))
	recs := make([]comm.Record[uint64], len(keys))
	for i, k := range keys {
		recs[i] = comm.Record[uint64]{Key: k, Payload: payloads[16*i : 16*i+16 : 16*i+16]}
		recordPayload(recs[i].Payload, k, i)
	}
	parts := splitEven(recs, procs)
	opts := pgxsort.Options{Procs: procs, WorkersPerProc: workers, Transport: pgxsort.TransportTCP}
	c, err := timeSetup(b, func() (*pgxsort.Cluster[uint64], error) { return pgxsort.NewRecordCluster[uint64](opts) },
		func(c *pgxsort.Cluster[uint64]) { c.Close() })
	if err != nil {
		return err
	}
	defer c.Close()

	var reps []core.Report
	b.loop(1, func(traced bool) opResult {
		res, d, op, err := tracedSort(b, traced, "core.Engine.SortRecords", func() (*core.Result[uint64], error) { return c.SortRecords(parts) })
		if err != nil {
			return opResult{err: err}
		}
		v := op.child("bench.verify", "bench")
		err = checkRecords(res.Parts, want, keys)
		v.end()
		op.end()
		if traced {
			reps = append(reps, res.Report.Snapshot())
		}
		return opResult{d: d, keys: len(keys), err: err}
	})
	if !b.traced {
		return nil
	}
	b.coreMetrics(reps)
	share := keys[:len(keys)/procs]
	if err := b.replayLayers(share, comm.NewRecordCodec[uint64](comm.U64Codec{}), payloads[:16*len(share)]); err != nil {
		return err
	}
	if err := b.replaySpill(share); err != nil {
		return err
	}
	if err := b.replayServe(missKeys/procs, strMissKeys/procs); err != nil {
		return err
	}
	return b.refs(keys, 0)
}

// budgetFor is the per-node memory budget the out-of-core workload sorts
// under: a tenth of one node's resident share of n entries, not sized to
// fit what the engine actually uses.
func budgetFor(n int) int64 { return int64(n/procs) * entryBytes / 10 }

// writeSpooled lands keys in a spill run file, the way a streaming
// ingress would, for SortSpooled to read.
func writeSpooled(path string, keys []uint64) error {
	w, err := spill.NewWriter(path, comm.U64Codec{}, spill.DefaultBlockBytes)
	if err != nil {
		return err
	}
	batch := make([]comm.Entry[uint64], 0, 4096)
	for i, k := range keys {
		batch = append(batch, comm.Entry[uint64]{Key: k})
		if len(batch) == cap(batch) || i == len(keys)-1 {
			if err := w.Append(batch); err != nil {
				w.Abort()
				return err
			}
			batch = batch[:0]
		}
	}
	return w.Finish()
}

// spooledSort runs SortSpooled on a spilled input and drains the stream
// through the reference check. It returns the call-plus-drain time and
// the stream's temp peak.
func spooledSort(c *pgxsort.Cluster[uint64], op ref, path string, want []uint64) (time.Duration, int64, error) {
	sp := op.child("core.Engine.SortSpooled", "core")
	t0 := time.Now()
	res, err := c.SortSpooled(context.Background(), core.SpooledInput{Path: path, N: len(want)})
	if err != nil {
		sp.end()
		return 0, 0, err
	}
	sc := &streamCheck[uint64]{want: want}
	var checkErr error
	drain := sp.child("spill.cursor drain", "spill")
	for {
		batch, err := res.Next()
		if err != nil {
			res.Close()
			sp.end()
			return 0, 0, err
		}
		if len(batch) == 0 {
			break
		}
		if checkErr == nil {
			checkErr = sc.batch(batch)
		}
	}
	drain.end()
	closeErr := res.Close()
	d := time.Since(t0)
	sp.end()
	if checkErr == nil {
		checkErr = sc.done()
	}
	if checkErr == nil {
		checkErr = closeErr
	}
	return d, res.TempPeakBytes(), checkErr
}

func runOutOfCore(b *bench) error {
	keys := genKeys(dist.Normal, b.seed, 3, outOfCore)
	want := sortedCopy(keys)
	parts := splitEven(keys, procs)
	input := filepath.Join(b.dir, "spooled-input.run")
	if err := writeSpooled(input, keys); err != nil {
		return err
	}
	spillDir := filepath.Join(b.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	budget := budgetFor(len(keys))
	opts := pgxsort.Options{Procs: procs, WorkersPerProc: workers, MemoryBudget: budget, SpillDir: spillDir}
	c, err := timeSetup(b, func() (*pgxsort.Cluster[uint64], error) { return pgxsort.NewCluster[uint64](opts) },
		func(c *pgxsort.Cluster[uint64]) { c.Close() })
	if err != nil {
		return err
	}
	defer c.Close()

	// One op is one round of both external-sort implementations over the
	// same input: a budgeted resident-API sort, then a spooled sort whose
	// cursor is fully drained.
	var reps []core.Report
	var budgeted, spooled []time.Duration
	var spooledPeaks []float64
	b.loop(1, func(traced bool) opResult {
		res, d1, op, err := tracedSort(b, traced, "core.Engine.Sort(budget)", func() (*core.Result[uint64], error) { return c.Sort(parts) })
		if err != nil {
			return opResult{err: err}
		}
		v := op.child("bench.verify", "bench")
		err = checkKeys(res.Parts, want)
		v.end()
		if err != nil {
			return opResult{err: err}
		}
		rep := res.Report.Snapshot()
		d2, peak, err := spooledSort(c, op, input, want)
		op.end()
		if err != nil {
			return opResult{err: err}
		}
		if traced {
			reps = append(reps, rep)
			budgeted = append(budgeted, d1)
			spooled = append(spooled, d2)
			spooledPeaks = append(spooledPeaks, mb(peak))
		}
		return opResult{d: d1 + d2, keys: 2 * len(keys)}
	})
	if !b.traced {
		return nil
	}
	b.coreMetrics(reps)
	b.spillMetrics(reps, budget, median(spooledPeaks))
	b.m.set("spill.budget_sort_s_p50", median(seconds(budgeted)))
	b.m.set("spill.spooled_s_p50", median(seconds(spooled)))
	share := keys[:len(keys)/procs]
	if err := b.replayLayers(share, comm.U64Codec{}, nil); err != nil {
		return err
	}
	if err := b.replayServe(missKeys/procs, strMissKeys/procs); err != nil {
		return err
	}
	return b.refs(keys, 0)
}

// spillMetrics records the engine spill tier's counters from budgeted
// sorts' reports. The budget is not sized to hide anything: the ratio of
// temp peak to budget is reported as measured.
func (b *bench) spillMetrics(reps []core.Report, budget int64, spooledPeakMB float64) {
	var written, amp, over []float64
	for _, r := range reps {
		written = append(written, float64(r.SpillBytes))
		amp = append(amp, float64(r.SpillReads)/float64(max(r.SpillBytes, 1)))
		over = append(over, float64(r.TempPeakBytes)/float64(budget))
	}
	b.m.set("spill.bytes_written", median(written))
	b.m.set("spill.read_amp", median(amp))
	b.m.set("spill.peak_over_budget", median(over))
	b.m.set("spill.spooled_temp_peak_mb", spooledPeakMB)
	fmt.Printf("spill: budget %d bytes per node\n", budget)
}
