package core

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// This file is the fully out-of-core sort path: the input arrives as a
// spill run file (a streaming ingress landed it there) and the output
// leaves as a cursor (streaming egress), so neither the input nor the
// result is ever resident. The pipeline keeps the paper's step-1 shape —
// each of the p nodes sorts its contiguous section of the input, here
// into budget-sized sorted chunk runs on disk — and collapses the
// exchange: instead of moving data to p owners and merging per owner,
// one bounded fan-in k-way merge streams all runs straight to the
// consumer. The exchange exists to move data between real machines; when
// the dataset lives on disk and the answer is leaving over a socket
// anyway, merging at egress is the classic external-merge-sort final
// pass and saves a full write+read of the dataset. The keys come out in
// the same total order every other path sorts under, so the canonical
// encoded bytes are identical to the resident pipeline's for the same
// key multiset.

// SpooledInput describes a dataset landed in a spill run file by a
// streaming ingress: entries in arrival order, any key order. The file
// must be a finished run holding at least N entries; it stays on disk
// (owned by the caller) across attempts, which is what makes spool-read
// failures retryable.
type SpooledInput struct {
	// Path is the finished spill run file.
	Path string
	// N is the entry count to sort (the ingress counted entries as they
	// streamed in).
	N int
	// ReadSite, when non-empty, names a failpoint hit before every input
	// batch read during run formation — the serve layer's
	// serve/spool-read fault-injection arm. Injected errors wrap
	// failpoint.ErrInjected and classify Transient: the spool file
	// persists, so a scheduler retry re-reads it cleanly.
	ReadSite string
}

// SpooledResult streams a spooled sort's output in sorted batches. It
// holds open run readers and a scratch directory until Close, which also
// folds the final I/O counters into Report. Batches follow the
// lsort.Cursor contract: valid only until the following Next.
type SpooledResult[K cmp.Ordered] struct {
	// N is the entry count the stream will yield.
	N int
	// Report carries the run's measurements. SpillReads and
	// TempPeakBytes settle at Close, once the stream has drained.
	Report Report

	st           *spill.Stream[K]
	x            *spill.ExternalSort[K]
	dir          string
	start        time.Time
	sectionReads int64
	release      func() // frees the scheduler slot, when admitted by one
	once         sync.Once
	closeErr     error
}

// Next yields the next sorted batch; a zero-length batch means the
// stream is exhausted.
func (r *SpooledResult[K]) Next() ([]comm.Entry[K], error) {
	return r.st.Next()
}

// TempPeakBytes reports the job's tracker-accounted temporary-memory
// high-water mark so far — chunk slabs, sort scratch, decoded block
// slabs and the merge batch. It can still grow until the stream is
// drained.
func (r *SpooledResult[K]) TempPeakBytes() int64 { return r.x.Tracker.Peak() }

// Close releases readers, slabs and the scratch directory, and settles
// Report. Idempotent.
func (r *SpooledResult[K]) Close() error {
	r.once.Do(func() {
		r.closeErr = r.st.Close()
		if err := os.RemoveAll(r.dir); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
		r.Report.SpillReads = r.sectionReads + r.x.BytesRead()
		r.Report.Total = time.Since(r.start)
		r.Report.TempPeakBytes = r.TempPeakBytes()
		r.Report.PerNode[0].TempPeakBytes = r.TempPeakBytes()
		if r.release != nil {
			r.release()
		}
	})
	return r.closeErr
}

// RunOneSpooled admits one spooled dataset through the scheduler's
// shared gates and runs it under the retry policy. The admission slot is
// held until the returned result is Closed — the stream holds engine
// scratch until then, and releasing early would let unbounded spooled
// streams pile up past the inflight cap. Retries cover failures during
// run formation and merge priming, before any output byte exists; an
// error mid-stream (from Next) is not retried, because output already
// left.
func (s *Scheduler[K]) RunOneSpooled(ctx context.Context, in SpooledInput) (*SpooledResult[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case s.gates.admit <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.noteAdmit(1)
	release := func() {
		s.noteAdmit(-1)
		<-s.gates.admit
	}
	pol := s.opts.Retry.withDefaults()
	backoff := pol.BaseBackoff
	// Distinct RNG stream from the resident jobs' (see runAttempts).
	rng := dist.NewRNG(pol.JitterSeed ^ 0x5B007ED50127AB1E)
	for attempt := 1; ; attempt++ {
		res, err := s.eng.SortSpooled(ctx, in)
		if err == nil {
			res.Report.Attempts = attempt
			res.release = release
			return res, nil
		}
		if attempt >= pol.MaxAttempts || Classify(err) != FailTransient || ctx.Err() != nil {
			release()
			return nil, err
		}
		if !s.takeRetryBudget(pol) {
			release()
			return nil, fmt.Errorf("core: retry budget exhausted after %d attempts: %w", attempt, err)
		}
		select {
		case <-time.After(transport.Jitter(backoff, rng.Uint64())):
		case <-ctx.Done():
			release()
			return nil, err
		}
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
		s.retries.Add(1)
	}
}

// SortSpooled externally sorts a spooled input under the engine's memory
// budget, returning a streaming result. Each node forms sorted runs from
// its section of the spool within its own budget; the runs, in node
// order, then merge through one external sort. Temporary memory — chunk
// slabs, sort scratch, decoded block slabs, the merge batch — is
// tracker-accounted per job and peaks at Procs budgets (plus
// spill.SlackBytes) however large the input.
func (e *Engine[K]) SortSpooled(ctx context.Context, in SpooledInput) (res *SpooledResult[K], err error) {
	if in.Path == "" || in.N < 0 {
		return nil, fmt.Errorf("core: bad spooled input (path %q, n %d)", in.Path, in.N)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := e.opts.Procs
	cmps := e.comparators()
	parent := e.opts.SpillDir
	if parent == "" {
		parent = os.TempDir()
	}
	dir, err := os.MkdirTemp(parent, "pgxsort-spool-*")
	if err != nil {
		return nil, fmt.Errorf("core: spool scratch dir: %w", err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	// Job-local tracker and pool: spooled jobs are rare and large, and a
	// job-local tracker gives an honest per-job TempPeakBytes (the node
	// trackers are engine-lifetime and shared across concurrent jobs).
	var pool *alloc.SlabPool[comm.Entry[K]]
	if !e.opts.DisablePooling {
		pool = &alloc.SlabPool[comm.Entry[K]]{}
	}
	x := e.externalSort(cmps, 0, dir, pool, &alloc.Tracker{})

	start := time.Now()
	var sectionReads atomic.Int64
	nodeRuns := make([][]string, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		lo := uint64(i) * uint64(in.N) / uint64(p)
		hi := uint64(i+1) * uint64(in.N) / uint64(p)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(node int, lo, hi uint64) {
			defer wg.Done()
			nodeRuns[node], errs[node] = e.formSectionRuns(ctx, x, in, node, lo, hi, &sectionReads)
		}(i, lo, hi)
	}
	wg.Wait()
	for _, nerr := range errs {
		if nerr != nil {
			return nil, nerr
		}
	}
	localSortDur := time.Since(start)
	st, err := x.Merge(ctx, slices.Concat(nodeRuns...))
	if err != nil {
		return nil, err
	}
	res = &SpooledResult[K]{N: in.N, st: st, x: x, dir: dir, start: start, sectionReads: sectionReads.Load()}
	res.Report = Report{
		Procs:         p,
		Workers:       e.opts.WorkersPerProc,
		N:             in.N,
		LocalSortPath: cmps.path,
		MergePath:     "spooled-kway+spill",
		SpillBytes:    x.BytesWritten(),
		SpillReads:    res.sectionReads + x.BytesRead(),
		PerNode:       make([]NodeReport, 1),
	}
	res.Report.Steps[StepLocalSort] = localSortDur
	return res, nil
}

// externalSort configures the external sort every out-of-core path runs
// through: this engine's codec, key order and workers, planned from
// Options.MemoryBudget for a merge of nruns runs (0 when not known).
func (e *Engine[K]) externalSort(cmps sortCmps[K], nruns int, dir string,
	pool *alloc.SlabPool[comm.Entry[K]], tracker *alloc.Tracker) *spill.ExternalSort[K] {
	workers := e.opts.WorkersPerProc
	return &spill.ExternalSort[K]{
		Codec: e.codec,
		Less:  cmps.entryLess,
		Sort: func(chunk, scratch []comm.Entry[K]) {
			cmps.sortEntries(chunk, scratch, workers)
		},
		Plan:    spill.PlanFor(e.opts.MemoryBudget, e.codec, nruns),
		Dir:     dir,
		Pool:    pool,
		Tracker: tracker,
	}
}

// formSectionRuns forms one node's sorted runs from entries [lo, hi) of
// the spool. The section reader's decoded blocks come out of the node's
// budget, so the chunks shrink to make room for them.
func (e *Engine[K]) formSectionRuns(ctx context.Context, x *spill.ExternalSort[K], in SpooledInput,
	node int, lo, hi uint64, reads *atomic.Int64) ([]string, error) {
	eb := int64(entryBytes[K]())
	sec, err := spill.NewRunReaderSection(in.Path, e.codec,
		spill.ReaderOpts[K]{Pool: x.Pool, Tracker: x.Tracker, EntryBytes: eb}, lo, hi-lo)
	if err != nil {
		return nil, err
	}
	defer func() {
		reads.Add(sec.BytesRead())
		sec.Close()
	}()
	src := &sectionCursor[K]{r: sec, site: in.ReadSite, node: uint32(node)}
	return x.FormRuns(ctx, src, 2*int64(sec.MaxBatch())*eb)
}

// sectionCursor feeds a node's spool section to run formation. It
// restamps provenance: the spool holds arrival order from one ingress
// stream, but the sorted output's tie-break provenance is (section,
// position in section), matching the resident path's (node, index).
type sectionCursor[K any] struct {
	r    *spill.RunReader[K]
	site string // SpooledInput.ReadSite
	node uint32
	seq  uint32
}

func (c *sectionCursor[K]) Next() ([]comm.Entry[K], error) {
	if c.site != "" {
		if err := failpoint.HitNoPanic(c.site); err != nil {
			return nil, err
		}
	}
	batch, err := c.r.Next()
	for i := range batch {
		batch[i].Proc, batch[i].Index = c.node, c.seq
		c.seq++
	}
	return batch, err
}
