package spill

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// Index entry fields, in on-disk order, for reindex's field selector.
var indexFields = []struct{ off, size int }{
	{0, 8},  // offset
	{8, 4},  // storedLen
	{12, 4}, // rawLen
	{16, 4}, // count
	{20, 4}, // crc
	{24, 4}, // flags
}

// reindex is the fuzzer's structure-aware mutator. When data ends in a
// well-placed index, it sets one field of one index entry to val, then
// recomputes every in-bounds block's checksum (unless the edited field
// is that block's checksum) and the index checksum in the trailer — so
// edits to index fields and block bytes get past the CRCs and reach the
// decode path.
func reindex(data []byte, block uint16, field uint8, val uint64) {
	if len(data) < headerSize+trailerSize || string(data[len(data)-8:]) != indexMagic {
		return
	}
	tr := data[len(data)-trailerSize:]
	indexOff := binary.LittleEndian.Uint64(tr)
	blocks := int(binary.LittleEndian.Uint32(tr[8:]))
	if blocks == 0 || indexOff < headerSize || indexOff+uint64(blocks)*indexEntrySize != uint64(len(data)-trailerSize) {
		return
	}
	idx := data[indexOff : len(data)-trailerSize]
	edit := int(block) % blocks
	f := indexFields[int(field)%len(indexFields)]
	ent := idx[edit*indexEntrySize:]
	if f.size == 8 {
		binary.LittleEndian.PutUint64(ent[f.off:], val)
	} else {
		binary.LittleEndian.PutUint32(ent[f.off:], uint32(val))
	}
	for i := 0; i < blocks; i++ {
		e := idx[i*indexEntrySize:]
		off := binary.LittleEndian.Uint64(e)
		stored := uint64(binary.LittleEndian.Uint32(e[8:]))
		if (i == edit && f == indexFields[4]) || off > indexOff || stored > indexOff-off {
			continue
		}
		binary.LittleEndian.PutUint32(e[20:], crc32.Checksum(data[off:off+stored], castagnoli))
	}
	binary.LittleEndian.PutUint32(tr[20:], crc32.Checksum(idx, castagnoli))
}

// drainFuzzed opens path as a whole run and as a section, drains both,
// and fails on any outcome but a clean read or ErrCorrupt — with every
// decoded slab's accounting settled afterwards.
func drainFuzzed[K any](t *testing.T, path string, c comm.Codec[K], off, limit uint64) {
	tr := &alloc.Tracker{}
	opts := ReaderOpts[K]{Pool: &alloc.SlabPool[comm.Entry[K]]{}, Tracker: tr, EntryBytes: entryBytes[K]()}
	open := []func() (*RunReader[K], error){
		func() (*RunReader[K], error) { return NewRunReader(path, c, opts) },
		func() (*RunReader[K], error) { return NewRunReaderSection(path, c, opts, off, limit) },
	}
	for _, openRun := range open {
		r, err := openRun()
		if err == nil {
			for {
				var batch []comm.Entry[K]
				if batch, err = r.Next(); err != nil || len(batch) == 0 {
					break
				}
			}
			r.Close()
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		if live := tr.Live(); live != 0 {
			t.Fatalf("tracker.Live = %d after Close", live)
		}
	}
}

// FuzzRunReader: a run file is untrusted bytes on disk. Whatever they
// are, opening and draining it — whole or as a section, as fixed-width
// keys, strings or records — ends in a clean read or an error wrapping
// ErrCorrupt: never a panic, and never an allocation sized by an index
// the block bytes cannot back.
func FuzzRunReader(f *testing.F) {
	dir := f.TempDir()
	u64 := u64Entries(600, 3)
	strs := dist.Gen{Kind: dist.RightSkewed, Seed: 5}.Strings(300, "k-")
	str := make([]comm.Entry[string], len(strs))
	for i, s := range strs {
		str[i] = comm.Entry[string]{Key: s, Index: uint32(i)}
	}
	pays := dist.Gen{Kind: dist.Uniform, Seed: 7}.Payloads(200, 12)
	rec := make([]comm.Entry[uint64], len(pays))
	for i, p := range pays {
		rec[i] = comm.Entry[uint64]{Key: uint64(i % 5), Payload: p, Index: uint32(i)}
	}
	seeds := [][]byte{
		writeSeed(f, dir, "u64", u64, comm.U64Codec{}),
		writeSeed(f, dir, "str", str, comm.StringCodec{}),
		writeSeed(f, dir, "rec", rec, comm.NewRecordCodec[uint64](comm.U64Codec{})),
	}
	for shape, seed := range seeds {
		f.Add(uint8(shape), seed, uint16(0), uint8(0), uint64(0), false)
		// A checksum-valid index claiming 2^32-1 entries in one block,
		// and one claiming a 4 GiB inflated size.
		f.Add(uint8(shape), seed, uint16(1), uint8(3), uint64(1<<32-1), true)
		f.Add(uint8(shape), seed, uint16(0), uint8(2), uint64(1<<32-1), true)
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte, block uint16, field uint8, val uint64, fix bool) {
		data = append([]byte(nil), data...)
		if fix {
			reindex(data, block, field, val)
		}
		path := filepath.Join(t.TempDir(), "fuzz.spill")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		off, limit := uint64(block), val%1024
		switch shape % 3 {
		case 0:
			drainFuzzed(t, path, comm.Codec[uint64](comm.U64Codec{}), off, limit)
		case 1:
			drainFuzzed(t, path, comm.Codec[string](comm.StringCodec{}), off, limit)
		case 2:
			drainFuzzed(t, path, comm.NewRecordCodec[uint64](comm.U64Codec{}), off, limit)
		}
	})
}

// writeSeed writes a small multi-block run and returns its bytes.
func writeSeed[K any](f *testing.F, dir, name string, entries []comm.Entry[K], c comm.Codec[K]) []byte {
	path := filepath.Join(dir, name+".spill")
	w, err := NewWriter(path, c, 512)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(entries); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
