package core

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"
	"unsafe"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// sortRun is the per-node state of one sort: the node it runs on, the
// sort id multiplexing its traffic, and its measurements.
type sortRun[K cmp.Ordered] struct {
	node   *node[K]
	sortID int32
	opts   Options
	codec  comm.Codec[K]
	// Exactly one of input (bare keys) and inputRec (key+payload records)
	// is set; they differ only in how localSort builds the entry buffer.
	input    []K
	inputRec []comm.Record[K]
	ctx      context.Context
	ctrl     *stageCtrl // nil outside the SortMany scheduler
	cmps     sortCmps[K]
	report   NodeReport

	// curStage is the last stage this node entered; a failure surfacing
	// from run is attributed to it (core.Failure.Stage).
	curStage SchedStage
	// pendingAsm/pendingSp/pendingOv hold the completed exchange between
	// partitionExchange returning and finalMerge consuming it, so run's
	// panic recovery can discard them (slabs back to the pool, merger
	// goroutine joined, spill files removed) when the merge stage never
	// runs. Exactly one of pendingAsm/pendingSp is set after a
	// successful exchange.
	pendingAsm *datamgr.Assembly[K]
	pendingSp  *datamgr.SpillAssembly[K]
	pendingOv  *overlapMerger[K]
	// spillDir is this run's private directory for spill run files,
	// created lazily by spillScratchDir the first time a stage exceeds
	// Options.MemoryBudget and removed when the run exits either way.
	spillDir string

	// Traffic counters are atomics, not a mutex: sends to different
	// destinations run concurrently on the worker pool, and the exchange
	// hot path must not serialize them. They fold into the report once
	// the run finishes.
	bytesSent   atomic.Int64
	msgsSent    atomic.Int64
	sampleBytes atomic.Int64
	metaBytes   atomic.Int64
	dataBytes   atomic.Int64

	// retired collects pooled entry slabs whose subslices may still be
	// aliased by in-flight exchange messages; sortOne recycles them only
	// after every node has joined.
	retired [][]comm.Entry[K]

	// Transport-health baselines captured when the run starts; the
	// endpoint counters are cumulative over the engine's lifetime, so
	// the report carries the delta accrued during this sort.
	stall0      time.Duration
	reconnects0 int64
	resent0     int64

	stageArrived [NumSchedStages]bool
	stageLeft    [NumSchedStages]bool
}

func entryLess[K cmp.Ordered](a, b comm.Entry[K]) bool { return a.Key < b.Key }

// sortCmps bundles one sort's ordering machinery: the resolved step-1
// path, the comparators driving sampling, partitioning and merging, and
// the key normalization feeding the radix passes. When the radix path is
// active every comparison goes through the normalized image, so the whole
// pipeline produces one consistent total order — for float64 that is the
// IEEE-754 total order, which pins the NaN positions `<` cannot order.
type sortCmps[K cmp.Ordered] struct {
	path     string // "radix" or "comparison"
	useRadix bool
	// fallback marks an inexact norm (monotone, non-injective): the radix
	// sort leaves equal-norm runs unordered, so localSort finishes with a
	// comparison pass over them (lsort.SortEqualNormRuns) and every
	// comparator below is two-level (norm first, real key order on ties).
	fallback  bool
	norm      func(K) uint64
	normBits  int
	entryLess func(a, b comm.Entry[K]) bool
	keyLess   func(a, b K) bool
	keyAbove  func(e comm.Entry[K], sp K) bool // e.Key strictly above the splitter
	keyBelow  func(e comm.Entry[K], sp K) bool // e.Key strictly below the splitter
	// tieLess refines entryLess with the origin processor on equal keys.
	// The streaming overlap merger orders under it so its output is the
	// unique linear extension of (key, origin, within-run order) — a total
	// order independent of run arrival timing, matching the barriered
	// MergeKWay output byte for byte.
	tieLess func(a, b comm.Entry[K]) bool
}

// comparators resolves Options.LocalSort against the engine's key
// normalization (LocalSortRadix without a norm degrades to comparison).
func (e *Engine[K]) comparators() sortCmps[K] {
	c := sortCmps[K]{norm: e.norm, normBits: e.normBits}
	c.useRadix = e.norm != nil && e.opts.LocalSort != LocalSortComparison
	if c.useRadix && e.normInexact {
		// Inexact norm (e.g. StringCodec's 8-byte prefix): the norm is a
		// cheap first discriminator, but equal norms can hide unequal keys,
		// so every comparator falls through to the real key order. The
		// radix passes still do the bulk of the work; SortEqualNormRuns
		// finishes the collided runs (see localSort).
		c.path = "radix"
		c.fallback = true
		norm := e.norm
		c.entryLess = func(a, b comm.Entry[K]) bool {
			na, nb := norm(a.Key), norm(b.Key)
			if na != nb {
				return na < nb
			}
			return a.Key < b.Key
		}
		c.keyLess = func(a, b K) bool {
			na, nb := norm(a), norm(b)
			if na != nb {
				return na < nb
			}
			return a < b
		}
		c.keyAbove = func(en comm.Entry[K], sp K) bool {
			na, nb := norm(en.Key), norm(sp)
			if na != nb {
				return na > nb
			}
			return en.Key > sp
		}
		c.keyBelow = func(en comm.Entry[K], sp K) bool {
			na, nb := norm(en.Key), norm(sp)
			if na != nb {
				return na < nb
			}
			return en.Key < sp
		}
		c.tieLess = func(a, b comm.Entry[K]) bool {
			na, nb := norm(a.Key), norm(b.Key)
			if na != nb {
				return na < nb
			}
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			return a.Proc < b.Proc
		}
	} else if c.useRadix {
		c.path = "radix"
		norm := e.norm
		c.entryLess = func(a, b comm.Entry[K]) bool { return norm(a.Key) < norm(b.Key) }
		c.keyLess = func(a, b K) bool { return norm(a) < norm(b) }
		c.keyAbove = func(en comm.Entry[K], sp K) bool { return norm(en.Key) > norm(sp) }
		c.keyBelow = func(en comm.Entry[K], sp K) bool { return norm(en.Key) < norm(sp) }
		// Specialized rather than layered over entryLess: the streaming
		// merger runs this on the hot path, and one norm per operand beats
		// the two entryLess probes of a generic tie-break wrapper.
		c.tieLess = func(a, b comm.Entry[K]) bool {
			na, nb := norm(a.Key), norm(b.Key)
			if na != nb {
				return na < nb
			}
			return a.Proc < b.Proc
		}
	} else {
		c.path = "comparison"
		c.entryLess = entryLess[K]
		c.keyLess = func(a, b K) bool { return a < b }
		c.keyAbove = func(en comm.Entry[K], sp K) bool { return en.Key > sp }
		c.keyBelow = func(en comm.Entry[K], sp K) bool { return en.Key < sp }
		c.tieLess = func(a, b comm.Entry[K]) bool {
			if a.Key < b.Key {
				return true
			}
			if b.Key < a.Key {
				return false
			}
			return a.Proc < b.Proc
		}
	}
	return c
}

// sortEntries sorts entries in place on the resolved step-1 path, with
// scratch (same length) as the radix or merge buffer.
func (c sortCmps[K]) sortEntries(entries, scratch []comm.Entry[K], workers int) {
	if !c.useRadix {
		lsort.ParallelSortScratch(entries, scratch, c.entryLess, workers)
		return
	}
	norm := c.norm
	key := func(e comm.Entry[K]) uint64 { return norm(e.Key) }
	// The chunk merges compare norms only, as the radix passes order: a
	// two-level less would merge chunks that are not sorted under it and
	// lose the input order of equal keys.
	normLess := func(a, b comm.Entry[K]) bool { return norm(a.Key) < norm(b.Key) }
	lsort.ParallelRadixSort(entries, scratch, key, c.normBits, normLess, workers)
	if c.fallback {
		// Inexact norm: the radix passes ordered by norm only; finish
		// the equal-norm runs under the real comparison.
		lsort.SortEqualNormRuns(entries, key, c.entryLess)
	}
}

// retire schedules a pooled slab for recycling once the whole sort has
// joined (sortOne calls recycleRetired after the last node finishes).
func (s *sortRun[K]) retire(buf []comm.Entry[K]) {
	if s.node.entryPool != nil {
		s.retired = append(s.retired, buf)
	}
}

// recycleRetired returns the retired slabs to the node's pool. Only safe
// once no exchange message can alias them: after every node of the sort
// has joined.
func (s *sortRun[K]) recycleRetired() {
	if s == nil {
		return
	}
	for _, buf := range s.retired {
		s.node.entryPool.Put(buf)
	}
	s.retired = nil
}

// foldTraffic moves the atomic traffic counters into the report, along
// with the transport-health deltas accrued since the run started.
func (s *sortRun[K]) foldTraffic() {
	s.report.BytesSent = s.bytesSent.Load()
	s.report.MsgsSent = s.msgsSent.Load()
	s.report.SampleBytes = s.sampleBytes.Load()
	s.report.MetaBytes = s.metaBytes.Load()
	s.report.DataBytes = s.dataBytes.Load()
	st := s.node.ep.Stats()
	s.report.SendStall = st.SendStall() - s.stall0
	s.report.Reconnects = st.Reconnects() - s.reconnects0
	s.report.FramesResent = st.FramesResent() - s.resent0
}

// markTransportBaseline snapshots the endpoint's cumulative health
// counters so foldTraffic can report per-sort deltas.
func (s *sortRun[K]) markTransportBaseline() {
	st := s.node.ep.Stats()
	s.stall0 = st.SendStall()
	s.reconnects0 = st.Reconnects()
	s.resent0 = st.FramesResent()
}

// entryBytes is the in-memory size of one entry, used for the resident /
// temporary memory accounting of Figure 11.
func entryBytes[K cmp.Ordered]() int {
	var e comm.Entry[K]
	return int(unsafe.Sizeof(e))
}

// send stamps the sort id, forwards to the transport and accounts the
// traffic against this sort (lock-free: sends to different destinations
// run concurrently).
func (s *sortRun[K]) send(dst int, m comm.Message[K]) error {
	m.SortID = s.sortID
	if err := s.node.ep.Send(dst, m); err != nil {
		return err
	}
	bytes := int64(m.WireBytes(s.codec))
	s.bytesSent.Add(bytes)
	s.msgsSent.Add(1)
	switch m.Kind {
	case comm.KSamples, comm.KSplitters:
		s.sampleBytes.Add(bytes)
	case comm.KRangeMeta, comm.KControl:
		s.metaBytes.Add(bytes)
	case comm.KData:
		s.dataBytes.Add(bytes)
	}
	return nil
}

// recv pops the next message of the given kind for this sort.
func (s *sortRun[K]) recv(kind comm.Kind) (comm.Message[K], error) {
	m, ok := s.node.mb(s.sortID, kind).pop()
	if !ok {
		if err := s.ctx.Err(); err != nil {
			return m, err
		}
		if s.node.isCancelled(s.sortID) {
			// A peer node already failed and sortOne tore this sort
			// down; report the teardown, not a fake network death, so
			// root-cause selection can tell noise from cause.
			return m, errSortAborted
		}
		if te := transport.TerminalErr(s.node.eng.net); te != nil {
			// The mesh recorded why it died (e.g. a broken link); chain
			// it so Classify sees Fatal, not an anonymous closure.
			return m, fmt.Errorf("network closed while waiting for %v: %w", kind, te)
		}
		return m, fmt.Errorf("network closed while waiting for %v", kind)
	}
	return m, nil
}

// enterStage blocks until the scheduler admits this sort into st,
// recording how long this node waited at the boundary.
func (s *sortRun[K]) enterStage(st SchedStage) error {
	s.curStage = st
	s.stageArrived[st] = true
	wait, err := s.ctrl.enter(st)
	s.report.StageWait[st] = wait
	if err != nil {
		return err
	}
	return s.ctx.Err()
}

// leaveStage marks this node done with st, at most once per stage.
func (s *sortRun[K]) leaveStage(st SchedStage) {
	if s.stageLeft[st] {
		return
	}
	s.stageLeft[st] = true
	s.ctrl.leave(st)
}

// leaveAllStages credits this node's arrival at and departure from every
// stage it has not passed through, so an error exit can never strand a
// stage barrier or gate.
func (s *sortRun[K]) leaveAllStages() {
	for st := SchedStage(0); st < NumSchedStages; st++ {
		if !s.stageArrived[st] {
			s.stageArrived[st] = true
			s.ctrl.forfeit(st)
		}
		s.leaveStage(st)
	}
}

// run executes the staged pipeline and returns this node's sorted part.
// The six paper steps map onto four scheduler stages: local sort (CPU),
// sample/splitter agreement (comm), partition+exchange (comm-heavy),
// final merge (CPU). Under MergeOverlap the last two stages overlap on
// this node — received runs merge incrementally while the exchange is
// still in flight — but the stage boundaries stay: the scheduler's
// exchange gate is released the moment this sort's communication is done,
// so pipelined SortMany still serializes only the comm-heavy part while
// the merge tail proceeds ungated.
func (s *sortRun[K]) run() (_ []comm.Entry[K], err error) {
	s.markTransportBaseline()
	defer s.leaveAllStages()
	defer s.foldTraffic()
	defer s.removeSpillDir()
	// Innermost defer, so recovery runs before the traffic fold and the
	// stage forfeits: a stage panic (an injected failpoint or a real
	// bug) becomes this node's error instead of killing the process,
	// and a completed-but-unmerged exchange gives its slabs back.
	defer func() {
		if r := recover(); r != nil {
			if s.pendingAsm != nil || s.pendingSp != nil {
				s.discardMerge(s.pendingAsm, s.pendingSp, s.pendingOv)
				s.pendingAsm, s.pendingSp, s.pendingOv = nil, nil, nil
			}
			err = recoverPanic(r)
		}
	}()

	if err := s.enterStage(StageLocalSort); err != nil {
		return nil, err
	}
	entries, err := s.localSort()
	if err != nil {
		return nil, err
	}
	if err := failpoint.Hit(fpLocalSort); err != nil {
		return nil, err
	}
	s.leaveStage(StageLocalSort)

	if err := s.enterStage(StageSplitters); err != nil {
		return nil, err
	}
	if err := failpoint.Hit(fpSplitters); err != nil {
		return nil, err
	}
	splitters, err := s.splitterAgreement(entries)
	if err != nil {
		return nil, err
	}
	s.leaveStage(StageSplitters)

	if err := s.enterStage(StageExchange); err != nil {
		return nil, err
	}
	if err := failpoint.Hit(fpExchange); err != nil {
		return nil, err
	}
	asm, sp, ov, err := s.partitionExchange(entries, splitters)
	if err != nil {
		return nil, err
	}
	s.leaveStage(StageExchange)
	s.pendingAsm, s.pendingSp, s.pendingOv = asm, sp, ov

	if err := s.enterStage(StageMerge); err != nil {
		s.pendingAsm, s.pendingSp, s.pendingOv = nil, nil, nil
		s.discardMerge(asm, sp, ov)
		return nil, err
	}
	if err := failpoint.Hit(fpMerge); err != nil {
		s.pendingAsm, s.pendingSp, s.pendingOv = nil, nil, nil
		s.discardMerge(asm, sp, ov)
		return nil, err
	}
	merged, err := s.finalMerge(asm, sp, ov)
	s.pendingAsm, s.pendingSp, s.pendingOv = nil, nil, nil
	if err != nil {
		return nil, err
	}
	s.leaveStage(StageMerge)

	s.report.PartSize = len(merged)
	s.report.ResidentBytes += int64(len(merged)) * int64(entryBytes[K]())
	s.report.TempPeakBytes = s.node.tracker.Peak()
	return merged, nil
}

// discardMerge abandons a completed exchange whose merge will never run
// (an error at the merge-stage boundary), on every strategy: under
// MergeOverlap the streaming merger joins and returns its intermediate
// slabs; on all paths — k-way included — the assembly's entry buffer goes
// back to the pool so an error exit never strands a slab. A spilled
// exchange has no resident buffer; closing it removes its run files.
func (s *sortRun[K]) discardMerge(asm *datamgr.Assembly[K], sp *datamgr.SpillAssembly[K], ov *overlapMerger[K]) {
	if ov != nil {
		ov.abort()
	}
	if sp != nil {
		sp.Close()
		return
	}
	asm.Release()
	s.node.entryPool.Put(asm.Entries())
}

// spillScratchDir lazily creates this run's private spill directory
// under Options.SpillDir (system temp dir when empty). removeSpillDir
// deletes it — and every run file inside — when the run exits.
func (s *sortRun[K]) spillScratchDir() (string, error) {
	if s.spillDir != "" {
		return s.spillDir, nil
	}
	dir, err := os.MkdirTemp(s.opts.SpillDir, "pgxsort-spill-*")
	if err != nil {
		return "", fmt.Errorf("core: create spill dir: %w", err)
	}
	s.spillDir = dir
	return dir, nil
}

func (s *sortRun[K]) removeSpillDir() {
	if s.spillDir != "" {
		os.RemoveAll(s.spillDir)
		s.spillDir = ""
	}
}

// localSort is step 1: the parallel local sort. The comparison path is
// the paper's chunked quicksort + balanced merge over the entries, with
// merge scratch drawn from the node's slab pool. The radix path (taken
// when the key normalizes to uint64, see Options.LocalSort) sorts
// (key, input index) pairs instead (sortPairs) and only then writes each
// entry once, in sorted order: an LSD pass over a 16-byte uint64 pair
// moves less than half the bytes of one over a 40-byte entry. Before the
// sort an entry is fully determined by its key, input index, this node's
// id and the input row's payload, and the radix sort is stable over pairs
// built in input order, so the entries come out byte-identical to sorting
// the entries themselves. The entry buffer returns to the pool once the
// whole sort joins (its subslices travel through the exchange).
// On the exact-norm radix path, entries that would blow
// Options.MemoryBudget go through spillSort instead: budget-sized chunks
// sort in memory, spill to block files, and stream-merge back — the same
// bytes, a fraction of the temporary memory.
func (s *sortRun[K]) localSort() ([]comm.Entry[K], error) {
	n := s.node
	t0 := time.Now()
	size := len(s.input)
	if s.inputRec != nil {
		size = len(s.inputRec)
	}
	eb := int64(entryBytes[K]())
	s.report.ResidentBytes = int64(size) * eb
	s.report.LocalSortPath = s.cmps.path
	workers := s.opts.WorkersPerProc
	budget := s.opts.MemoryBudget
	var entries []comm.Entry[K]
	switch {
	case size < 2:
		entries = s.writeEntries(size, nil)
	case budget > 0 && s.cmps.useRadix && !s.cmps.fallback &&
		int64(size)*eb > budget:
		// The entries alone exceed the budget. Only the exact-norm radix
		// path spills here: its chunk sorts and the streaming merge are
		// both stable, so the chunked result is byte-identical to the
		// one-pass sort at any chunk size. (Inexact norms and the
		// comparison path keep their in-memory sort; the exchange stage
		// still spills for them.)
		entries = s.writeEntries(size, nil)
		if err := s.spillSort(entries); err != nil {
			return nil, err
		}
	case s.cmps.useRadix:
		entries = s.sortPairs(size, workers)
	case workers > 1:
		entries = s.writeEntries(size, nil)
		scratch := n.entryPool.Get(len(entries))
		n.tracker.Alloc(int64(len(scratch)) * eb)
		s.cmps.sortEntries(entries, scratch, workers)
		n.tracker.Free(int64(len(scratch)) * eb)
		n.entryPool.Put(scratch)
	default:
		entries = s.writeEntries(size, nil)
		lsort.Quicksort(entries, s.cmps.entryLess)
	}
	s.report.Steps[StepLocalSort] = time.Since(t0)
	return entries, nil
}

// keyIndex is the radix local sort's working element: a key and its
// row's index in this node's input, 16 B for 8-byte keys.
type keyIndex[K cmp.Ordered] struct {
	Key   K
	Index uint32
}

// sortPairs radix-sorts this node's keys as (key, input index) pairs
// under the resolved norm and returns the entries written in that order.
// A most-significant-digit pass distributes the pairs straight from the
// input into groups sharing their top varying byte
// (lsort.RadixDistribute); each group then gets a stable LSD radix sort
// against a scratch the size of the largest group, and inexact norms
// finish their equal-norm runs under the two-level comparison. The pair
// buffer and the scratch are temporary memory from the node's pair pool;
// the entries are resident.
func (s *sortRun[K]) sortPairs(size, workers int) []comm.Entry[K] {
	n := s.node
	norm, keyLess := s.cmps.norm, s.cmps.keyLess
	key := func(p keyIndex[K]) uint64 { return norm(p.Key) }
	at := func(i int) keyIndex[K] { return keyIndex[K]{Key: s.input[i], Index: uint32(i)} }
	if s.inputRec != nil {
		at = func(i int) keyIndex[K] { return keyIndex[K]{Key: s.inputRec[i].Key, Index: uint32(i)} }
	}
	pairs := n.pairPool.Get(size)
	bounds := lsort.RadixDistribute(pairs, size, at, key)
	largest := 0
	for b := 0; b+1 < len(bounds); b++ {
		largest = max(largest, bounds[b+1]-bounds[b])
	}
	scratch := n.pairPool.Get(largest)
	pb := int64(unsafe.Sizeof(keyIndex[K]{}))
	n.tracker.Alloc(int64(size+largest) * pb)

	// As in sortEntries, the chunk merges compare norms only.
	normLess := func(a, b keyIndex[K]) bool { return norm(a.Key) < norm(b.Key) }
	for b := 0; b+1 < len(bounds); b++ {
		if lo, hi := bounds[b], bounds[b+1]; hi-lo > 1 {
			lsort.ParallelRadixSort(pairs[lo:hi], scratch, key, s.cmps.normBits, normLess, workers)
		}
	}
	n.pairPool.Put(scratch)
	n.tracker.Free(int64(largest) * pb)
	if s.cmps.fallback {
		// Inexact norm: the radix passes ordered by norm only; finish
		// the equal-norm runs under the real comparison.
		lsort.SortEqualNormRuns(pairs, key, func(a, b keyIndex[K]) bool { return keyLess(a.Key, b.Key) })
	}

	entries := s.writeEntries(size, pairs)
	n.pairPool.Put(pairs)
	n.tracker.Free(int64(size) * pb)
	return entries
}

// writeEntries draws the node's entry buffer and writes one entry per
// input row — key, provenance (this node, input index) and any record
// payload — in the order of pairs, or in input order when pairs is nil.
// Each 40-byte entry is written once, sequentially.
func (s *sortRun[K]) writeEntries(size int, pairs []keyIndex[K]) []comm.Entry[K] {
	id := uint32(s.node.id)
	entries := s.node.entryPool.Get(size)
	switch {
	case pairs != nil && s.inputRec != nil:
		for i, p := range pairs {
			entries[i] = comm.Entry[K]{Key: p.Key, Payload: s.inputRec[p.Index].Payload, Proc: id, Index: p.Index}
		}
	case pairs != nil:
		for i, p := range pairs {
			entries[i] = comm.Entry[K]{Key: p.Key, Proc: id, Index: p.Index}
		}
	case s.inputRec != nil:
		for i, r := range s.inputRec {
			entries[i] = comm.Entry[K]{Key: r.Key, Payload: r.Payload, Proc: id, Index: uint32(i)}
		}
	default:
		for i, k := range s.input {
			entries[i] = comm.Entry[K]{Key: k, Proc: id, Index: uint32(i)}
		}
	}
	s.retire(entries)
	return entries
}

// spillSort sorts entries in place through the external sort: chunks
// sort and spill as runs, and the merge streams them back into entries.
// Every stage is stable, so the result is byte-identical to the
// in-memory ParallelRadixSort whatever the plan.
func (s *sortRun[K]) spillSort(entries []comm.Entry[K]) error {
	chunk := spill.PlanFor(s.opts.MemoryBudget, s.codec, 0).ChunkEntries
	return s.externalSort((len(entries)+chunk-1)/chunk, entries, nil, entries)
}

// externalSort merges runs into dst through an external sort over this
// run's spill directory, planned from Options.MemoryBudget for a merge
// of nruns runs and accounted on the node's tracker. Non-nil src is
// first formed into the runs.
func (s *sortRun[K]) externalSort(nruns int, src []comm.Entry[K], runs []string, dst []comm.Entry[K]) error {
	dir, err := s.spillScratchDir()
	if err != nil {
		return err
	}
	x := s.node.eng.externalSort(s.cmps, nruns, dir, s.node.entryPool, &s.node.tracker)
	if src != nil {
		runs, err = x.FormRuns(s.ctx, lsort.NewSliceCursor(src), 0)
	}
	if err == nil {
		err = x.MergeInto(s.ctx, runs, dst)
	}
	s.report.SpillBytes += x.BytesWritten()
	s.report.SpillReads += x.BytesRead()
	return err
}

// splitterAgreement is steps 2-3: regular sampling, one buffer of samples
// to the master, master-side splitter selection and broadcast.
func (s *sortRun[K]) splitterAgreement(entries []comm.Entry[K]) ([]K, error) {
	p := s.opts.Procs
	self := s.node.id
	master := s.opts.Master

	// ---- Step 2: regular sampling, one buffer of samples to master ----
	t0 := time.Now()
	nsamples := sample.Count(s.opts.BufferBytes, p, s.codec.KeySize(), s.opts.SampleFactor, len(entries))
	sampled := sample.Regular(entries, nsamples)
	keys := make([]K, len(sampled))
	for i, e := range sampled {
		keys[i] = e.Key
	}
	s.report.SamplesSent = len(keys)
	if p > 1 && self != master {
		if err := s.send(master, comm.Message[K]{Kind: comm.KSamples, Keys: keys}); err != nil {
			return nil, err
		}
	}
	s.report.Steps[StepSampling] = time.Since(t0)

	// ---- Step 3: master selects splitters and broadcasts them ----
	t0 = time.Now()
	var splitters []K
	if p > 1 {
		if self == master {
			runs := make([][]K, 0, p)
			runs = append(runs, keys) // master's own samples stay local
			for i := 0; i < p-1; i++ {
				m, err := s.recv(comm.KSamples)
				if err != nil {
					return nil, err
				}
				runs = append(runs, m.Keys)
			}
			splitters = sample.SelectSplitters(runs, p, s.cmps.keyLess)
			for dst := 0; dst < p; dst++ {
				if dst == master {
					continue
				}
				if err := s.send(dst, comm.Message[K]{Kind: comm.KSplitters, Keys: splitters}); err != nil {
					return nil, err
				}
			}
		} else {
			m, err := s.recv(comm.KSplitters)
			if err != nil {
				return nil, err
			}
			splitters = m.Keys
		}
		if len(splitters) == 0 {
			// Every processor was empty, so no samples exist anywhere.
			// Any splitters partition nothing correctly; use zero keys.
			splitters = make([]K, p-1)
		}
	}
	s.report.Steps[StepSplitters] = time.Since(t0)
	return splitters, nil
}

// exchangeSink is the part of the assembly contract the exchange loop
// needs, satisfied by both the resident datamgr.Assembly and the
// out-of-core datamgr.SpillAssembly.
type exchangeSink[K any] interface {
	Write(src int, chunk []comm.Entry[K]) error
	RunComplete(src int) bool
}

// partitionExchange is steps 4-5: binary-search range partitioning, the
// range-metadata broadcast, and the simultaneous all-to-all exchange at
// precomputed offsets. Under MergeOverlap it also starts the streaming
// merger and feeds it each source's run as the assembly completes it, so
// step-6 work overlaps the exchange. When the assembled total would
// exceed Options.MemoryBudget the runs land in a SpillAssembly's block
// files instead of a resident buffer (and the overlap merger, which
// needs resident runs, stands down for this sort). On error the
// assembly's temporary memory is released, the merger (if any) is
// aborted and spill files are removed, so a cancelled sort cannot
// inflate the node's tracker or leak slabs for later sorts on the same
// engine.
func (s *sortRun[K]) partitionExchange(entries []comm.Entry[K], splitters []K) (_ *datamgr.Assembly[K], _ *datamgr.SpillAssembly[K], _ *overlapMerger[K], err error) {
	n := s.node
	p := s.opts.Procs
	self := n.id
	eb := entryBytes[K]()

	// ---- Step 4: binary-search range partitioning + metadata bcast ----
	t0 := time.Now()
	ranges := sample.Partition(entries, splitters,
		s.cmps.keyLess, s.cmps.keyAbove, s.cmps.keyBelow,
		!s.opts.DisableInvestigator)
	counts := ranges.Counts()
	meta := make([]int64, p)
	for i, c := range counts {
		meta[i] = int64(c)
	}
	// Broadcast the counts so every receiver can precompute offsets.
	for dst := 0; dst < p; dst++ {
		if dst == self {
			continue
		}
		if err := s.send(dst, comm.Message[K]{Kind: comm.KRangeMeta, Ints: meta}); err != nil {
			return nil, nil, nil, err
		}
	}
	// Collect everyone's counts; perSrc[i] is what source i sends me.
	perSrc := make([]int, p)
	perSrc[self] = counts[self]
	for i := 0; i < p-1; i++ {
		m, err := s.recv(comm.KRangeMeta)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(m.Ints) != p {
			return nil, nil, nil, fmt.Errorf("range metadata from %d has %d counts, want %d", m.Src, len(m.Ints), p)
		}
		perSrc[m.Src] = int(m.Ints[self])
	}
	s.report.Steps[StepPartition] = time.Since(t0)

	// ---- Step 5: simultaneous send and receive at precomputed offsets ----
	t0 = time.Now()
	total := 0
	for _, c := range perSrc {
		total += c
	}
	var (
		asm  *datamgr.Assembly[K]
		sp   *datamgr.SpillAssembly[K]
		sink exchangeSink[K]
		ov   *overlapMerger[K]
	)
	if budget := s.opts.MemoryBudget; budget > 0 && int64(total)*int64(eb) > budget {
		// The assembled runs would not fit the budget: land them in
		// block files. The streaming overlap merger needs resident runs,
		// so it stands down and the final merge streams from disk.
		dir, derr := s.spillScratchDir()
		if derr != nil {
			return nil, nil, nil, derr
		}
		sp, err = datamgr.NewSpillAssembly(n.dm, perSrc, s.codec, dir,
			spill.PlanFor(s.opts.MemoryBudget, s.codec, p).BlockBytes)
		if err != nil {
			return nil, nil, nil, err
		}
		sink = sp
	} else {
		asm = datamgr.NewAssemblyBuf[K](n.dm, perSrc, eb, n.entryPool.Get(total))
		sink = asm
		// The streaming merger must exist before the first assembly write
		// so no run-completion — the self range included — can slip past it.
		if s.opts.Merge == MergeOverlap {
			ov = newOverlapMerger(s, asm)
			asm.OnRunComplete(ov.offer)
		}
	}
	// sendDone carries the concurrent sender's result; the cleanup defer
	// drains it if still outstanding, because recycling the assembly
	// while sends are in flight would alias live exchange buffers.
	var sendDone chan error
	defer func() {
		if r := recover(); r != nil {
			err = recoverPanic(r)
		}
		if err != nil {
			if sendDone != nil {
				<-sendDone
			}
			if ov != nil {
				ov.abort()
			}
			if sp != nil {
				sp.Close()
			} else {
				asm.Release()
				n.entryPool.Put(asm.Entries())
			}
		}
	}()
	// The local range never touches the network.
	lo, hi := ranges.Range(self)
	if err := sink.Write(self, entries[lo:hi]); err != nil {
		return nil, nil, nil, err
	}
	expectRemote := 0
	for src, c := range perSrc {
		if src != self {
			expectRemote += c
		}
	}

	sendAll := func() error {
		// One send task per destination on the worker pool: the task
		// manager schedules chunked request buffers per peer.
		errs := make([]error, p)
		tasks := make([]func(), 0, p-1)
		for dst := 0; dst < p; dst++ {
			if dst == self {
				continue
			}
			dst := dst
			dlo, dhi := ranges.Range(dst)
			// Chunk by measured wire size, not the nominal KeySize: with
			// variable-width keys or payloads the estimate keeps chunks
			// near the buffer budget instead of overshooting it.
			estBytes := comm.EntryWireEstimate(entries[dlo:dhi], s.codec)
			tasks = append(tasks, func() {
				errs[dst] = datamgr.Chunks(n.dm, entries[dlo:dhi], estBytes,
					func(chunk []comm.Entry[K], last bool) error {
						m := comm.Message[K]{Kind: comm.KData, Entries: chunk}
						if last {
							// Per-source run-complete signal riding the
							// existing framing; the receiver cross-checks
							// it against the metadata-derived counts.
							m.Flags |= comm.FlagRunComplete
						}
						return s.send(dst, m)
					})
			})
		}
		n.pool.RunAll(tasks...)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	recvAll := func() error {
		got := 0
		for got < expectRemote {
			m, err := s.recv(comm.KData)
			if err != nil {
				return err
			}
			if err := sink.Write(m.Src, m.Entries); err != nil {
				return err
			}
			if m.Flags&comm.FlagRunComplete != 0 && !sink.RunComplete(m.Src) {
				// The sender says its run ends here but the metadata
				// counts expect more: a framing/metadata mismatch that
				// must fail loudly, not feed a short run to the merger.
				return fmt.Errorf("source %d signaled run-complete before its %d expected entries arrived",
					m.Src, perSrc[m.Src])
			}
			got += len(m.Entries)
			if m.Release != nil {
				// The entries were decoded into a transport-owned slab
				// (TCP path) and are copied out now; recycle it.
				m.Release()
			}
		}
		return nil
	}

	if s.opts.SyncExchange {
		// Bulk-synchronous ablation: finish all sends, exchange barrier
		// tokens, then drain the receive queue.
		if err := sendAll(); err != nil {
			return nil, nil, nil, err
		}
		for dst := 0; dst < p; dst++ {
			if dst == self {
				continue
			}
			if err := s.send(dst, comm.Message[K]{Kind: comm.KControl, Ints: []int64{1}}); err != nil {
				return nil, nil, nil, err
			}
		}
		for i := 0; i < p-1; i++ {
			if _, err := s.recv(comm.KControl); err != nil {
				return nil, nil, nil, err
			}
		}
		if err := recvAll(); err != nil {
			return nil, nil, nil, err
		}
	} else {
		// Paper behaviour: send while receiving, no barrier in between.
		sendDone = make(chan error, 1)
		go func() { sendDone <- sendAll() }()
		if err := recvAll(); err != nil {
			return nil, nil, nil, err // cleanup defer drains sendDone
		}
		sendErr := <-sendDone
		sendDone = nil // drained; the cleanup defer must not block on it
		if sendErr != nil {
			return nil, nil, nil, sendErr
		}
	}
	if ov != nil {
		ov.markExchangeDone()
	}
	if sp != nil {
		s.report.SpillBytes += sp.SpillBytes()
	}
	s.report.Steps[StepExchange] = time.Since(t0)
	return asm, sp, ov, nil
}

// finalMerge is step 6: merge the received sorted runs. The merge
// scratch comes from the node's slab pool; whichever of the assembly
// buffer and the scratch does not end up backing the result is recycled
// immediately (the result itself becomes resident storage and leaves the
// pool for good). Under MergeOverlap most of the work already happened
// inside the exchange; only the streaming merger's final pass runs here,
// and StepFinalMerge times just that visible tail. A spilled exchange
// streams its block-file runs through the same loser tree MergeKWay
// uses (tie-broken by source order), so its output is byte-identical to
// the in-memory k-way and overlap paths.
func (s *sortRun[K]) finalMerge(asm *datamgr.Assembly[K], sp *datamgr.SpillAssembly[K], ov *overlapMerger[K]) ([]comm.Entry[K], error) {
	n := s.node
	p := s.opts.Procs
	eb := entryBytes[K]()

	t0 := time.Now()
	if sp != nil {
		merged, err := s.spillMerge(sp)
		s.report.Steps[StepFinalMerge] = time.Since(t0)
		return merged, err
	}
	var merged []comm.Entry[K]
	buf := asm.Entries()
	switch {
	case ov != nil:
		// Streaming overlap: drain the merger and run its final
		// splitter-partitioned parallel pass. The result never aliases
		// the assembly buffer, so the slab is unconditionally free.
		merged = ov.finish()
		asm.Release()
		n.entryPool.Put(buf)
	case s.opts.Merge == MergeKWay:
		bounds := asm.Bounds()
		runs := make([][]comm.Entry[K], 0, p)
		for i := 0; i+1 < len(bounds); i++ {
			runs = append(runs, buf[bounds[i]:bounds[i+1]])
		}
		n.tracker.Alloc(int64(len(buf)) * int64(eb))
		merged = lsort.KWayMerge(runs, s.cmps.entryLess)
		n.tracker.Free(int64(len(buf)) * int64(eb))
		asm.Release()
		n.entryPool.Put(buf) // k-way merged into fresh storage; buf is free
	default:
		scratch := n.entryPool.Get(len(buf))
		n.tracker.Alloc(int64(len(buf)) * int64(eb))
		var fromScratch bool
		merged, fromScratch = lsort.MergeAdjacentRunsOwned(buf, scratch, asm.Bounds(), s.cmps.entryLess, true)
		n.tracker.Free(int64(len(buf)) * int64(eb))
		asm.Release()
		// Explicit ownership from the merge, not a base-pointer compare
		// (which has no element to address on empty results): exactly one
		// of buf/scratch backs the result and the other is recycled — and
		// an empty result frees both, since nothing aliases either.
		switch {
		case len(merged) == 0:
			n.entryPool.Put(buf)
			n.entryPool.Put(scratch)
			merged = nil
		case fromScratch:
			n.entryPool.Put(buf)
		default:
			n.entryPool.Put(scratch)
		}
	}
	s.report.Steps[StepFinalMerge] = time.Since(t0)
	return merged, nil
}

// spillMerge drains a spilled exchange: the per-source run files, in
// source order, merge through the external sort straight into the
// result buffer, so ties break by source exactly as in KWayMerge. The
// run files are removed before returning.
func (s *sortRun[K]) spillMerge(sp *datamgr.SpillAssembly[K]) ([]comm.Entry[K], error) {
	defer sp.Close()
	merged := s.node.entryPool.Get(sp.Total())
	if err := s.externalSort(s.opts.Procs, nil, sp.Runs(), merged); err != nil {
		s.node.entryPool.Put(merged)
		return nil, err
	}
	return merged, nil
}
