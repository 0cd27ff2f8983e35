package spill

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// ReaderOpts configures how a RunReader allocates decoded batches.
type ReaderOpts[K any] struct {
	// Pool supplies the slab behind each decoded batch; nil allocates
	// plainly. Recycled slabs are the block cache: with a pool shared
	// across readers, at most readers×2 slabs (live batch + decode-ahead)
	// circulate regardless of run size.
	Pool *alloc.SlabPool[comm.Entry[K]]
	// Tracker, when set, accounts decoded-batch bytes (EntryBytes per
	// entry) as Alloc on decode and Free on recycle, so slab-balance
	// tests can assert Live()==0 after Close.
	Tracker    *alloc.Tracker
	EntryBytes int64
}

// decoded is one block's worth of entries in flight from the prefetch
// goroutine to the consumer.
type decoded[K any] struct {
	entries []comm.Entry[K]
	err     error
}

// RunReader streams one spilled run back as an lsort.Cursor: Next yields
// one decoded block per call, while a prefetch goroutine keeps exactly
// one further block decoded ahead (it hands blocks over on an unbuffered
// channel, so none waits in between). The previous batch's slab is
// recycled on the following Next, so a reader holds at most two block
// slabs and a merge over k spilled runs at most 2k, however large the
// runs are.
type RunReader[K any] struct {
	f     *os.File
	codec comm.Codec[K]
	opts  ReaderOpts[K]
	index []blockMeta
	total uint64

	ch   chan decoded[K]
	stop chan struct{}
	prev []comm.Entry[K] // batch handed out by the last Next
	done bool

	// Section bounds (NewRunReaderSection): skip entries dropped from the
	// first kept block, limit entries emitted in total. limited gates the
	// trimming so whole-run readers pay nothing.
	limited bool
	skip    int
	limit   uint64

	bytesRead atomic.Int64
}

// NewRunReader opens a finished run file and validates its structure:
// magics, version, trailer placement, index checksum, and that block
// offsets tile [header, indexOff) exactly in order. Any mismatch is
// ErrCorrupt. On success the decode-ahead goroutine starts immediately.
func NewRunReader[K any](path string, c comm.Codec[K], opts ReaderOpts[K]) (*RunReader[K], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run file: %w", err)
	}
	r := &RunReader[K]{f: f, codec: c, opts: opts}
	if err := r.loadIndex(); err != nil {
		f.Close()
		return nil, err
	}
	r.ch = make(chan decoded[K])
	r.stop = make(chan struct{})
	go r.prefetch(r.stop)
	return r, nil
}

// NewRunReaderSection opens entries [offset, offset+limit) of a finished
// run file as their own cursor. Blocks wholly outside the section are
// never read or decoded — the index's per-block counts locate the first
// and last overlapping block — so p section readers over one spooled
// input file scan p disjoint byte ranges. Bounds are clamped to the run;
// Count reports the section's entry count.
func NewRunReaderSection[K any](path string, c comm.Codec[K], opts ReaderOpts[K], offset, limit uint64) (*RunReader[K], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run file: %w", err)
	}
	r := &RunReader[K]{f: f, codec: c, opts: opts}
	if err := r.loadIndex(); err != nil {
		f.Close()
		return nil, err
	}
	if offset > r.total {
		offset = r.total
	}
	if limit > r.total-offset {
		limit = r.total - offset
	}
	// Walk the index to the first block containing offset, then to the
	// first block past offset+limit.
	first, cum := 0, uint64(0)
	for first < len(r.index) && cum+uint64(r.index[first].count) <= offset {
		cum += uint64(r.index[first].count)
		first++
	}
	end, reach := first, cum
	for end < len(r.index) && reach < offset+limit {
		reach += uint64(r.index[end].count)
		end++
	}
	r.index = r.index[first:end]
	r.limited = true
	r.skip = int(offset - cum)
	r.limit = limit
	r.total = limit
	r.ch = make(chan decoded[K])
	r.stop = make(chan struct{})
	go r.prefetch(r.stop)
	return r, nil
}

// loadIndex reads and validates trailer + index.
func (r *RunReader[K]) loadIndex() error {
	st, err := r.f.Stat()
	if err != nil {
		return fmt.Errorf("spill: stat run file: %w", err)
	}
	size := st.Size()
	if size < headerSize+trailerSize {
		return corruptf("file %d bytes, shorter than header+trailer", size)
	}
	var hdr [headerSize]byte
	if _, err := r.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("spill: read header: %w", err)
	}
	if string(hdr[:8]) != magic {
		return corruptf("bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != version {
		return corruptf("unsupported version %d", v)
	}
	var tr [trailerSize]byte
	if _, err := r.f.ReadAt(tr[:], size-trailerSize); err != nil {
		return fmt.Errorf("spill: read trailer: %w", err)
	}
	if string(tr[24:32]) != indexMagic {
		return corruptf("bad trailer magic %q (truncated file?)", tr[24:32])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	blocks := binary.LittleEndian.Uint32(tr[8:])
	r.total = binary.LittleEndian.Uint64(tr[12:])
	wantCRC := binary.LittleEndian.Uint32(tr[20:])
	idxLen := int64(blocks) * indexEntrySize
	// indexOff is bounded by the file before any arithmetic: a huge value
	// would wrap int64 and let an arbitrary block count size the index.
	if indexOff < headerSize || indexOff > uint64(size) || int64(indexOff)+idxLen != size-trailerSize {
		return corruptf("index at %d (+%d) does not abut trailer in %d-byte file", indexOff, idxLen, size)
	}
	idx := make([]byte, idxLen)
	if _, err := io.ReadFull(io.NewSectionReader(r.f, int64(indexOff), idxLen), idx); err != nil {
		return fmt.Errorf("spill: read index: %w", err)
	}
	if got := crc32.Checksum(idx, castagnoli); got != wantCRC {
		return corruptf("index checksum %08x, want %08x", got, wantCRC)
	}
	r.index = make([]blockMeta, blocks)
	minWire := comm.MinEntryWireBytes(r.codec)
	next, entries := uint64(headerSize), uint64(0)
	for i := range r.index {
		m := &r.index[i]
		m.offset = binary.LittleEndian.Uint64(idx[i*indexEntrySize:])
		m.storedLen = binary.LittleEndian.Uint32(idx[i*indexEntrySize+8:])
		m.rawLen = binary.LittleEndian.Uint32(idx[i*indexEntrySize+12:])
		m.count = binary.LittleEndian.Uint32(idx[i*indexEntrySize+16:])
		m.crc = binary.LittleEndian.Uint32(idx[i*indexEntrySize+20:])
		m.flags = binary.LittleEndian.Uint32(idx[i*indexEntrySize+24:])
		if m.offset != next || m.offset+uint64(m.storedLen) > indexOff {
			return corruptf("block %d at offset %d (want %d, %d stored bytes, index at %d)",
				i, m.offset, next, m.storedLen, indexOff)
		}
		// The decode path allocates rawLen bytes and count entries, so
		// both are checked against what the stored bytes can hold before
		// any block is read.
		if m.flags&blockCompressed != 0 && uint64(m.rawLen) > maxInflate*uint64(m.storedLen) {
			return corruptf("block %d: %d raw bytes cannot inflate from %d stored", i, m.rawLen, m.storedLen)
		}
		if uint64(m.count)*uint64(minWire) > uint64(m.rawLen) {
			return corruptf("block %d: %d entries cannot fit in %d raw bytes", i, m.count, m.rawLen)
		}
		next = m.offset + uint64(m.storedLen)
		entries += uint64(m.count)
	}
	if next != indexOff {
		return corruptf("blocks end at %d, index starts at %d", next, indexOff)
	}
	if entries != r.total {
		return corruptf("index counts %d entries, trailer says %d", entries, r.total)
	}
	return nil
}

// prefetch decodes blocks in order, staying exactly one decoded block
// ahead of the consumer (the channel is unbuffered). Buffers for stored
// and raw bytes are reused across blocks; entry slabs come from the pool
// and travel to the consumer, who recycles them via Next/Close.
func (r *RunReader[K]) prefetch(stop <-chan struct{}) {
	defer close(r.ch)
	var stored, raw []byte
	var fr io.ReadCloser
	br := bytes.NewReader(nil)
	emitted := uint64(0)
	for i := range r.index {
		batch, err := r.readBlock(&r.index[i], &stored, &raw, &fr, br)
		if err != nil {
			select {
			case r.ch <- decoded[K]{err: err}:
			case <-stop:
			}
			return
		}
		if r.limited {
			lo := 0
			if i == 0 {
				lo = r.skip
			}
			hi := len(batch)
			if remain := r.limit - emitted; uint64(hi-lo) > remain {
				hi = lo + int(remain)
			}
			batch = r.trimBatch(batch, lo, hi)
			emitted += uint64(len(batch))
			if len(batch) == 0 {
				// An empty batch would read as end-of-run; only possible
				// for a zero-length section, which has no blocks anyway.
				r.recycle(batch)
				return
			}
		}
		select {
		case r.ch <- decoded[K]{entries: batch}:
		case <-stop:
			r.recycle(batch)
			return
		}
	}
}

// trimBatch narrows a decoded block to its section overlap, in place:
// the overlap moves to the front of the slab and the dropped entries'
// accounting is freed at once. At most two blocks per section (first and
// last) pay the copy.
func (r *RunReader[K]) trimBatch(batch []comm.Entry[K], lo, hi int) []comm.Entry[K] {
	if lo == 0 && hi == len(batch) {
		return batch
	}
	n := copy(batch, batch[lo:hi])
	if r.opts.Tracker != nil {
		r.opts.Tracker.Free(int64(len(batch)-n) * r.opts.EntryBytes)
	}
	return batch[:n]
}

// readBlock fetches, verifies and decodes one block. stored/raw/fr/br
// are the prefetch loop's reusable buffers and inflater.
func (r *RunReader[K]) readBlock(m *blockMeta, stored, raw *[]byte, fr *io.ReadCloser, br *bytes.Reader) ([]comm.Entry[K], error) {
	if err := failpoint.HitNoPanic(FpReadBlock); err != nil {
		return nil, err
	}
	if cap(*stored) < int(m.storedLen) {
		*stored = make([]byte, m.storedLen)
	}
	buf := (*stored)[:m.storedLen]
	if _, err := r.f.ReadAt(buf, int64(m.offset)); err != nil {
		return nil, fmt.Errorf("spill: read block: %w", err)
	}
	r.bytesRead.Add(int64(m.storedLen))
	if got := crc32.Checksum(buf, castagnoli); got != m.crc {
		return nil, corruptf("block at %d: checksum %08x, want %08x", m.offset, got, m.crc)
	}
	data := buf
	if m.flags&blockCompressed != 0 {
		if cap(*raw) < int(m.rawLen) {
			*raw = make([]byte, m.rawLen)
		}
		data = (*raw)[:m.rawLen]
		br.Reset(buf)
		if *fr == nil {
			*fr = flate.NewReader(br)
		} else if err := (*fr).(flate.Resetter).Reset(br, nil); err != nil {
			return nil, corruptf("block at %d: %v", m.offset, err)
		}
		if _, err := io.ReadFull(*fr, data); err != nil {
			return nil, corruptf("block at %d: inflate: %v", m.offset, err)
		}
	} else if uint32(len(data)) != m.rawLen {
		return nil, corruptf("block at %d: raw block stores %d bytes, index says %d", m.offset, len(data), m.rawLen)
	}
	entries, rest, err := comm.DecodeEntriesSlab(data, int(m.count), r.codec, r.opts.Pool)
	if err != nil {
		return nil, corruptf("block at %d: %v", m.offset, err)
	}
	if len(rest) != 0 {
		r.opts.Pool.Put(entries) // not yet accounted: no recycle
		return nil, corruptf("block at %d: %d trailing bytes after %d entries", m.offset, len(rest), m.count)
	}
	if r.opts.Tracker != nil {
		r.opts.Tracker.Alloc(int64(len(entries)) * r.opts.EntryBytes)
	}
	return entries, nil
}

// recycle returns a decoded batch's slab and settles its accounting.
func (r *RunReader[K]) recycle(batch []comm.Entry[K]) {
	if batch == nil {
		return
	}
	if r.opts.Tracker != nil {
		r.opts.Tracker.Free(int64(len(batch)) * r.opts.EntryBytes)
	}
	r.opts.Pool.Put(batch)
}

// Next implements lsort.Cursor: it recycles the previously returned
// batch and hands out the next decoded block; a zero-length batch means
// the run is exhausted. The returned slice is only valid until the next
// Next or Close.
func (r *RunReader[K]) Next() ([]comm.Entry[K], error) {
	r.recycle(r.prev)
	r.prev = nil
	if r.done {
		return nil, nil
	}
	d, ok := <-r.ch
	if !ok {
		r.done = true
		return nil, nil
	}
	if d.err != nil {
		r.done = true
		return nil, d.err
	}
	r.prev = d.entries
	return d.entries, nil
}

// MaxBatch reports the most entries one Next can yield: the largest
// block count among the blocks this reader will decode.
func (r *RunReader[K]) MaxBatch() int {
	most := 0
	for _, m := range r.index {
		most = max(most, int(m.count))
	}
	return most
}

// Count reports the total entries in the run (from the trailer).
func (r *RunReader[K]) Count() uint64 { return r.total }

// BytesRead reports stored block bytes fetched so far — the reader-side
// half of the Report's SpillReads column. Safe to call concurrently.
func (r *RunReader[K]) BytesRead() int64 { return r.bytesRead.Load() }

// Close stops the prefetch goroutine, recycles outstanding slabs and
// closes the file. Safe after errors and safe to call once Next has
// drained the run.
func (r *RunReader[K]) Close() error {
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
		// Drain anything the prefetcher had already parked in the
		// channel so its slab goes back to the pool.
		for d := range r.ch {
			r.recycle(d.entries)
		}
	}
	r.recycle(r.prev)
	r.prev = nil
	r.done = true
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
