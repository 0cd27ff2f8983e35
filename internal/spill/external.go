package spill

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
)

// SlackBytes is how far an external sort's tracked temporary memory may
// exceed its budget. Below roughly 64 KiB a budget cannot pay for the
// sizing floors that keep the sort making progress — a minFanIn-way
// merge of two minBlockEntries-entry blocks per run plus a
// minBlockEntries batch is (8·2·65 + 64)·48 ≈ 52 KiB at the widest
// in-memory entry (a string key: 48 bytes), and a minChunkEntries chunk
// with its scratch another 24 KiB outside any merge — so the floors
// alone decide the peak there. Above the floors the plan fits the
// budget itself.
const SlackBytes = 64 << 10

const (
	// unbudgeted is the budget planned for when none is set: a 16 MiB
	// chunk of entries and its scratch.
	unbudgeted = 32 << 20
	// minChunkEntries keeps pathological budgets from degenerating into
	// per-entry runs.
	minChunkEntries = 256
	// minBlockEntries and targetBlockEntries bound a block from below:
	// the floor keeps per-block costs (a read, a CRC, an inflate reset, a
	// hand-off between goroutines) from dominating, and fan-in only grows
	// once every run can still afford target-sized blocks.
	minBlockEntries    = 64
	targetBlockEntries = 512
	// minFanIn and maxFanIn bound how many runs one merge pass reads. The
	// floor caps the number of passes at tiny budgets; the cap bounds
	// the open files: a pass holds FanIn readers and one writer.
	minFanIn = 8
	maxFanIn = 64
)

// Plan is an external sort's sizing, derived from one memory budget by
// PlanFor. Every out-of-core path uses the same rule, so the budget
// means the same thing on each.
type Plan struct {
	// ChunkEntries is the length of one sorted run as formed: the chunk
	// and its sort scratch together fill the budget.
	ChunkEntries int
	// BatchEntries is the merge output batch: an eighth of the budget.
	BatchEntries int
	// FanIn is the most runs one merge pass reads at once.
	FanIn int
	// BlockBytes is the run files' block size: FanIn readers holding two
	// decoded blocks each fill the rest of the budget.
	BlockBytes int
}

// PlanFor sizes an external sort of K entries under codec c to a
// temporary-memory budget (<= 0 plans for an unbudgeted default). A run
// reader's decoded blocks are temporary memory, so block size and fan-in
// trade against each other: fan-in grows with the budget in steps of
// target-sized blocks, between minFanIn and maxFanIn, and the block then
// takes the budget's remainder, at least minBlockEntries and at most
// DefaultBlockBytes. runs, when known (> 0), is how many runs the merge
// will see: fewer than the budget's fan-in get the larger blocks the
// budget affords them.
func PlanFor[K any](budget int64, c comm.Codec[K], runs int) Plan {
	if budget <= 0 {
		budget = unbudgeted
	}
	eb := entryBytes[K]()
	p := Plan{
		ChunkEntries: max(int(budget/(2*eb)), minChunkEntries),
		BatchEntries: max(int(budget/(8*eb)), minBlockEntries),
	}
	readers := budget - int64(p.BatchEntries)*eb
	p.FanIn = int(min(max(readers/(2*eb*targetBlockEntries), minFanIn), maxFanIn))
	if runs > 0 && runs < p.FanIn {
		p.FanIn = max(runs, 2)
	}
	blockEntries := max(readers/(2*eb*int64(p.FanIn)), minBlockEntries)
	p.BlockBytes = int(min(blockEntries*int64(comm.MinEntryWireBytes(c)), DefaultBlockBytes))
	return p
}

func entryBytes[K any]() int64 {
	var e comm.Entry[K]
	return int64(unsafe.Sizeof(e))
}

// ExternalSort is the one external-sort primitive behind every
// out-of-core path: chunks of entries sort in memory and land as run
// files (FormRuns), merge passes fold contiguous groups of at most
// Plan.FanIn runs into longer runs, and one lsort.MergeCursor streams
// the survivors (Merge, MergeInto). Runs keep their order throughout and
// the cursor breaks ties by run index, so the output is the stable merge
// of the runs in the order given — the tie order every byte-identity
// differential relies on.
//
// Tracker accounts temporary memory — chunk buffers, sort scratch,
// decoded block slabs and the merge output batch — so a sort planned by
// PlanFor peaks within its budget plus SlackBytes. What the caller
// passes in and what MergeInto fills are the caller's resident memory.
//
// FormRuns may run concurrently on one ExternalSort; Merge and MergeInto
// own the run files they are given, removing each once it is merged.
type ExternalSort[K any] struct {
	Codec comm.Codec[K]
	// Less orders entries; Sort must order chunks consistently with it.
	Less func(a, b comm.Entry[K]) bool
	// Sort sorts a chunk in place; scratch is a same-length buffer.
	Sort func(chunk, scratch []comm.Entry[K])
	Plan Plan
	// Dir holds the run files; the caller creates and removes it.
	Dir     string
	Pool    *alloc.SlabPool[comm.Entry[K]]
	Tracker *alloc.Tracker

	seq           atomic.Int64
	written, read atomic.Int64
}

// BytesWritten reports the run-file bytes written so far.
func (x *ExternalSort[K]) BytesWritten() int64 { return x.written.Load() }

// BytesRead reports the run-file bytes read by closed merges so far.
func (x *ExternalSort[K]) BytesRead() int64 { return x.read.Load() }

// FormRuns drains src in Plan.ChunkEntries chunks, sorts each and writes
// it as a run, returning the run paths in input order. reserve is budget
// the source itself holds while it is read (a spill reader's decoded
// blocks, say); the chunk shrinks to leave room for it.
func (x *ExternalSort[K]) FormRuns(ctx context.Context, src lsort.Cursor[comm.Entry[K]], reserve int64) ([]string, error) {
	eb := entryBytes[K]()
	chunk := max(x.Plan.ChunkEntries-int(reserve/(2*eb)), minChunkEntries)
	buf, scratch := x.Pool.Get(chunk), x.Pool.Get(chunk)
	x.Tracker.Alloc(2 * int64(chunk) * eb)
	defer func() {
		x.Tracker.Free(2 * int64(chunk) * eb)
		x.Pool.Put(buf)
		x.Pool.Put(scratch)
	}()
	var (
		runs    []string
		pending []comm.Entry[K] // unconsumed tail of the source's batch
		done    bool
	)
	for !done {
		fill := 0
		for fill < chunk && !done {
			if len(pending) == 0 {
				var err error
				if pending, err = src.Next(); err != nil {
					return runs, err
				}
				done = len(pending) == 0
			}
			n := copy(buf[fill:chunk], pending)
			fill += n
			pending = pending[n:]
		}
		if fill == 0 {
			break
		}
		x.Sort(buf[:fill], scratch[:fill])
		path, err := x.writeRun(ctx, lsort.NewSliceCursor(buf[:fill]))
		if err != nil {
			return runs, err
		}
		runs = append(runs, path)
	}
	return runs, nil
}

// Merge merges runs — ties go to the earlier run — into one stream.
// While more than Plan.FanIn remain, each contiguous group of FanIn
// merges into a new run first. Close the stream to release its readers
// and remove its run files. On error, run files not yet merged are left
// for the caller's Dir cleanup.
func (x *ExternalSort[K]) Merge(ctx context.Context, runs []string) (*Stream[K], error) {
	runs, err := x.reduce(ctx, runs)
	if err != nil {
		return nil, err
	}
	return x.stream(runs)
}

// MergeInto is Merge into dst, which must be exactly as long as the
// runs' total entry count (a shortfall is ErrCorrupt); the final merge
// fills dst directly, without a batch.
func (x *ExternalSort[K]) MergeInto(ctx context.Context, runs []string, dst []comm.Entry[K]) error {
	runs, err := x.reduce(ctx, runs)
	if err != nil {
		return err
	}
	st, cursors, err := x.open(runs)
	if err != nil {
		return err
	}
	n, err := lsort.MergeCursors(dst, cursors, x.Less)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != len(dst) {
		err = corruptf("merge produced %d of %d entries", n, len(dst))
	}
	return err
}

// reduce runs merge passes until at most Plan.FanIn runs remain.
func (x *ExternalSort[K]) reduce(ctx context.Context, runs []string) ([]string, error) {
	fanIn := x.Plan.FanIn
	for len(runs) > fanIn {
		var next []string
		for g := 0; g < len(runs); g += fanIn {
			group := runs[g:min(g+fanIn, len(runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			st, err := x.stream(group)
			if err != nil {
				return nil, err
			}
			path, err := x.writeRun(ctx, st)
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			next = append(next, path)
		}
		runs = next
	}
	return runs, nil
}

// writeRun drains src into a new run file in Dir.
func (x *ExternalSort[K]) writeRun(ctx context.Context, src lsort.Cursor[comm.Entry[K]]) (string, error) {
	path := filepath.Join(x.Dir, fmt.Sprintf("ext-%d.spill", x.seq.Add(1)))
	w, err := NewWriter(path, x.Codec, x.Plan.BlockBytes)
	if err != nil {
		return "", err
	}
	for {
		batch, err := src.Next()
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			w.Abort()
			return "", err
		}
		if len(batch) == 0 {
			break
		}
		if err := w.Append(batch); err != nil {
			return "", err // a failed Append has already removed the file
		}
	}
	if err := w.Finish(); err != nil {
		w.Abort()
		return "", err
	}
	x.written.Add(w.BytesWritten())
	return path, nil
}

// open opens a reader per run, in order.
func (x *ExternalSort[K]) open(runs []string) (*Stream[K], []lsort.Cursor[comm.Entry[K]], error) {
	st := &Stream[K]{x: x, runs: runs}
	cursors := make([]lsort.Cursor[comm.Entry[K]], 0, len(runs))
	ropts := ReaderOpts[K]{Pool: x.Pool, Tracker: x.Tracker, EntryBytes: entryBytes[K]()}
	for _, path := range runs {
		r, err := NewRunReader(path, x.Codec, ropts)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		st.readers = append(st.readers, r)
		cursors = append(cursors, r)
	}
	return st, cursors, nil
}

// stream opens runs as one merged stream with a Plan.BatchEntries batch.
func (x *ExternalSort[K]) stream(runs []string) (*Stream[K], error) {
	st, cursors, err := x.open(runs)
	if err != nil {
		return nil, err
	}
	st.batch = x.Pool.Get(x.Plan.BatchEntries)
	x.Tracker.Alloc(int64(len(st.batch)) * entryBytes[K]())
	if st.cur, err = lsort.NewMergeCursor(cursors, x.Less, st.batch); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// Stream is an external sort's merged output: an lsort.Cursor over the
// final runs. Batches are valid only until the following Next.
type Stream[K any] struct {
	x       *ExternalSort[K]
	cur     *lsort.MergeCursor[comm.Entry[K]]
	readers []*RunReader[K]
	runs    []string
	batch   []comm.Entry[K]
}

// Next yields the next sorted batch; a zero-length batch means the
// stream is exhausted.
func (s *Stream[K]) Next() ([]comm.Entry[K], error) { return s.cur.Next() }

// Close releases the readers and the batch, counts the bytes read and
// removes the stream's run files. Idempotent.
func (s *Stream[K]) Close() error {
	var first error
	for _, r := range s.readers {
		s.x.read.Add(r.BytesRead())
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, path := range s.runs {
		os.Remove(path)
	}
	s.x.Tracker.Free(int64(len(s.batch)) * entryBytes[K]())
	s.x.Pool.Put(s.batch)
	s.readers, s.runs, s.batch = nil, nil, nil
	return first
}
