// Package spill implements the out-of-core run tier: sorted runs of
// entries written to append-only block files and streamed back through
// lsort.Cursor readers, so the merge path can consume runs that never
// fit in RAM exactly like resident slabs.
//
// File layout (all integers little-endian):
//
//	header:  magic "PGXSPIL1" | version u16 | flags u16 | reserved u32
//	blocks:  per block, the stored bytes — comm.EncodeEntries output,
//	         flate-compressed when that shrinks it, raw otherwise
//	index:   per block: offset u64 | storedLen u32 | rawLen u32 |
//	         count u32 | crc32c u32 | flags u32
//	trailer: indexOff u64 | blockCount u32 | totalEntries u64 |
//	         indexCRC u32 | magic "PGXSPIX1"
//
// Each block checksums its stored bytes with CRC32-Castagnoli, so a
// flipped bit surfaces as ErrCorrupt before decompression ever runs; the
// index carries its own checksum and the trailer is found at a fixed
// offset from the end, so truncation and bad index offsets are caught at
// open time. Corruption is a data problem, never a panic: every
// validation failure wraps ErrCorrupt, which the engine classifies
// FailDataDependent.
package spill

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

const (
	magic      = "PGXSPIL1"
	indexMagic = "PGXSPIX1"
	version    = 1

	headerSize     = 16
	indexEntrySize = 28
	trailerSize    = 32

	// DefaultBlockBytes is the target raw (pre-compression) size of one
	// block: big enough to amortize flate and syscall overhead, small
	// enough that one decoded block per active reader stays far below
	// any sane memory budget.
	DefaultBlockBytes = 128 << 10

	// blockCompressed marks a block whose stored bytes are
	// flate-compressed; absent, the stored bytes are the raw encoding
	// (the store-raw fallback for incompressible data).
	blockCompressed = 1 << 0

	// maxInflate is DEFLATE's largest expansion ratio (a 258-byte match
	// costs at least two bits): no valid compressed block inflates to
	// more than this many times its stored size.
	maxInflate = 1032
)

// Failpoint sites covering spill I/O, wired into the soak storm like
// every other stage. Both downgrade panics to errors (HitNoPanic): they
// fire on writer flush paths and reader prefetch goroutines where an
// unwind would leak file handles.
const (
	FpWriteBlock = "spill/write-block"
	FpReadBlock  = "spill/read-block"
)

// ErrCorrupt is the sentinel wrapped by every structural validation
// failure — bad magic, checksum mismatch, truncated file, index offsets
// out of bounds. It marks the failure as a property of the data on disk
// (FailDataDependent), not of the mesh or the run attempt.
var ErrCorrupt = errors.New("spill: corrupt run file")

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// blockMeta is one index entry: where a block's stored bytes live and
// how to open them.
type blockMeta struct {
	offset    uint64
	storedLen uint32
	rawLen    uint32
	count     uint32
	crc       uint32
	flags     uint32
}

// Writer appends one sorted run to a block file. Entries are encoded
// immediately on Append (payloads may alias transient message slabs, so
// nothing entry-shaped is retained), buffered until the raw encoding
// reaches BlockBytes, then compressed and flushed as one block. Callers
// must Append entries in run order; the file records order, it does not
// sort. Not safe for concurrent use.
type Writer[K any] struct {
	path  string
	f     *os.File
	bw    *bufio.Writer
	codec comm.Codec[K]

	blockBytes int
	minWire    int    // comm.MinEntryWireBytes(codec)
	pending    []byte // raw encoding of the open block
	pendCount  uint32
	comp       bytes.Buffer
	fw         *flate.Writer

	off     uint64
	index   []blockMeta
	entries uint64
	failed  error
}

// NewWriter creates path (truncating any previous file) and writes the
// header. blockBytes <= 0 selects DefaultBlockBytes.
func NewWriter[K any](path string, c comm.Codec[K], blockBytes int) (*Writer[K], error) {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spill: create run file: %w", err)
	}
	w := &Writer[K]{
		path:       path,
		f:          f,
		bw:         bufio.NewWriterSize(f, 1<<16),
		codec:      c,
		blockBytes: blockBytes,
		minWire:    comm.MinEntryWireBytes(c),
		off:        headerSize,
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint16(hdr[8:], version)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.Abort()
		return nil, fmt.Errorf("spill: write header: %w", err)
	}
	return w, nil
}

// Append encodes entries onto the open block, flushing completed blocks
// as the target size fills. Each step sizes itself by the entries' wire
// size, estimated from a prefix but never below comm.MinEntryWireBytes,
// so a block holds at most one entry more than
// BlockBytes/MinEntryWireBytes: a reader's decoded batch is bounded by
// the block size whatever the keys. The entries (and their payloads) are
// fully copied before Append returns.
func (w *Writer[K]) Append(entries []comm.Entry[K]) error {
	if w.failed != nil {
		return w.failed
	}
	for len(entries) > 0 {
		sample := entries[:min(len(entries), 64)]
		est := max(comm.EntriesWireBytes(sample, w.codec)/len(sample), w.minWire)
		step := (w.blockBytes - len(w.pending)) / est
		if step < 1 {
			step = 1
		}
		if step > len(entries) {
			step = len(entries)
		}
		w.pending = comm.EncodeEntries(w.pending, entries[:step], w.codec)
		w.pendCount += uint32(step)
		entries = entries[step:]
		if len(w.pending) >= w.blockBytes {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush compresses and writes the open block and records its index
// entry. The store-raw fallback keeps incompressible blocks at their
// raw size plus nothing.
func (w *Writer[K]) flush() error {
	if w.pendCount == 0 {
		return nil
	}
	if err := failpoint.HitNoPanic(FpWriteBlock); err != nil {
		return w.fail(err)
	}
	stored := w.pending
	var flags uint32
	w.comp.Reset()
	if w.fw == nil {
		w.fw, _ = flate.NewWriter(&w.comp, flate.BestSpeed)
	} else {
		w.fw.Reset(&w.comp)
	}
	if _, err := w.fw.Write(w.pending); err == nil && w.fw.Close() == nil &&
		w.comp.Len() < len(w.pending) {
		stored = w.comp.Bytes()
		flags |= blockCompressed
	}
	if _, err := w.bw.Write(stored); err != nil {
		return w.fail(fmt.Errorf("spill: write block: %w", err))
	}
	w.index = append(w.index, blockMeta{
		offset:    w.off,
		storedLen: uint32(len(stored)),
		rawLen:    uint32(len(w.pending)),
		count:     w.pendCount,
		crc:       crc32.Checksum(stored, castagnoli),
		flags:     flags,
	})
	w.off += uint64(len(stored))
	w.entries += uint64(w.pendCount)
	w.pending = w.pending[:0]
	w.pendCount = 0
	return nil
}

// Finish flushes the open block, writes the index and trailer, and
// closes the file. After Finish the run is complete on disk and
// BytesWritten/Entries report its final totals.
func (w *Writer[K]) Finish() error {
	if w.failed != nil {
		return w.failed
	}
	if err := w.flush(); err != nil {
		return err
	}
	idx := make([]byte, 0, len(w.index)*indexEntrySize)
	for _, m := range w.index {
		idx = binary.LittleEndian.AppendUint64(idx, m.offset)
		idx = binary.LittleEndian.AppendUint32(idx, m.storedLen)
		idx = binary.LittleEndian.AppendUint32(idx, m.rawLen)
		idx = binary.LittleEndian.AppendUint32(idx, m.count)
		idx = binary.LittleEndian.AppendUint32(idx, m.crc)
		idx = binary.LittleEndian.AppendUint32(idx, m.flags)
	}
	if _, err := w.bw.Write(idx); err != nil {
		return w.fail(fmt.Errorf("spill: write index: %w", err))
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], w.off)
	binary.LittleEndian.PutUint32(tr[8:], uint32(len(w.index)))
	binary.LittleEndian.PutUint64(tr[12:], w.entries)
	binary.LittleEndian.PutUint32(tr[20:], crc32.Checksum(idx, castagnoli))
	copy(tr[24:], indexMagic)
	if _, err := w.bw.Write(tr[:]); err != nil {
		return w.fail(fmt.Errorf("spill: write trailer: %w", err))
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(fmt.Errorf("spill: flush run file: %w", err))
	}
	w.off += uint64(len(idx)) + trailerSize
	err := w.f.Close()
	w.f = nil
	if err != nil {
		w.failed = fmt.Errorf("spill: close run file: %w", err)
		return w.failed
	}
	return nil
}

// fail records the first error, closes the file and removes the partial
// run; subsequent calls keep returning the original error.
func (w *Writer[K]) fail(err error) error {
	if w.failed == nil {
		w.failed = err
		w.Abort()
	}
	return w.failed
}

// Abort closes and removes the run file. Safe to call after Finish (the
// completed file is removed) or after a failure (idempotent).
func (w *Writer[K]) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.path)
	if w.failed == nil {
		w.failed = errors.New("spill: writer aborted")
	}
}

// Path returns the run file path.
func (w *Writer[K]) Path() string { return w.path }

// BytesWritten reports the total bytes of the run file written so far,
// header and (after Finish) index/trailer included — the writer-side
// half of the Report's SpillBytes column.
func (w *Writer[K]) BytesWritten() int64 { return int64(w.off) }

// Entries reports how many entries have been flushed into blocks.
func (w *Writer[K]) Entries() uint64 { return w.entries }
