package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"pgxsort"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
)

// Every op's output is compared with a slices.Sort reference of the same
// seeded input. A mismatch is a failed op and fails the run.

// checkKeys compares a sorted result's keys with the reference.
func checkKeys[K cmp.Ordered](parts [][]comm.Entry[K], want []K) error {
	i := 0
	for p, part := range parts {
		for j, e := range part {
			if i >= len(want) {
				return fmt.Errorf("result holds more than the %d input keys", len(want))
			}
			if e.Key != want[i] {
				return fmt.Errorf("key %d (part %d, entry %d) is %v, want %v", i, p, j, e.Key, want[i])
			}
			i++
		}
	}
	if i != len(want) {
		return fmt.Errorf("result holds %d keys, want %d", i, len(want))
	}
	return nil
}

// recordPayload is the 16-byte payload the records workload attaches to
// input row idx: the key and the row index, little-endian, so the check
// can prove each payload still rides with its own key.
func recordPayload(dst []byte, key uint64, idx int) {
	binary.LittleEndian.PutUint64(dst, key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(idx))
}

// checkRecords checks the sorted keys against the reference and that
// every payload names an input row holding its key, each row once.
func checkRecords(parts [][]comm.Entry[uint64], want, input []uint64) error {
	if err := checkKeys(parts, want); err != nil {
		return err
	}
	seen := make([]bool, len(input))
	for _, part := range parts {
		for _, e := range part {
			if len(e.Payload) != 16 {
				return fmt.Errorf("payload of key %d has %d bytes, want 16", e.Key, len(e.Payload))
			}
			k := binary.LittleEndian.Uint64(e.Payload)
			idx := binary.LittleEndian.Uint64(e.Payload[8:])
			if k != e.Key || idx >= uint64(len(input)) || input[idx] != e.Key || seen[idx] {
				return fmt.Errorf("payload (key %d, row %d) does not belong to key %d", k, idx, e.Key)
			}
			seen[idx] = true
		}
	}
	return nil
}

// checkBytes compares an encoded answer with the keyio encoding of the
// reference.
func checkBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("answer differs from the reference encoding at byte %d of %d", i, len(want))
		}
	}
	return fmt.Errorf("answer has %d bytes, reference encoding %d", len(got), len(want))
}

// streamCheck compares a streamed result batch by batch with the
// reference; done reports a short stream.
type streamCheck[K cmp.Ordered] struct {
	want []K
	pos  int
}

func (s *streamCheck[K]) batch(b []comm.Entry[K]) error {
	if s.pos+len(b) > len(s.want) {
		return fmt.Errorf("stream yields more than the %d input keys", len(s.want))
	}
	for i, e := range b {
		if e.Key != s.want[s.pos+i] {
			return fmt.Errorf("stream key %d is %v, want %v", s.pos+i, e.Key, s.want[s.pos+i])
		}
	}
	s.pos += len(b)
	return nil
}

func (s *streamCheck[K]) done() error {
	if s.pos != len(s.want) {
		return fmt.Errorf("stream ended after %d of %d keys", s.pos, len(s.want))
	}
	return nil
}

// selfTest proves every check fires: it sorts a small seeded input for
// real, corrupts one byte of a copy of each kind of result and expects
// the matching check to reject it.
func selfTest() error {
	keys := dist.Gen{Kind: dist.RightSkewed, Seed: 99}.Keys(4000)
	want := slices.Clone(keys)
	slices.Sort(want)

	c, err := pgxsort.NewRecordCluster[uint64](pgxsort.Options{Procs: procs, WorkersPerProc: workers})
	if err != nil {
		return err
	}
	defer c.Close()
	recs := make([]comm.Record[uint64], len(keys))
	for i, k := range keys {
		recs[i].Key = k
		recs[i].Payload = make([]byte, 16)
		recordPayload(recs[i].Payload, k, i)
	}
	res, err := c.SortRecords(splitEven(recs, procs))
	if err != nil {
		return err
	}
	if err := checkRecords(res.Parts, want, keys); err != nil {
		return fmt.Errorf("clean result rejected: %w", err)
	}

	type corruption struct {
		name  string
		check func(parts [][]comm.Entry[uint64]) error
		flip  func(parts [][]comm.Entry[uint64])
	}
	mid := func(parts [][]comm.Entry[uint64]) *comm.Entry[uint64] { return &parts[procs/2][len(parts[procs/2])/2] }
	cases := []corruption{
		{"key", func(p [][]comm.Entry[uint64]) error { return checkKeys(p, want) },
			func(p [][]comm.Entry[uint64]) { mid(p).Key ^= 1 << 8 }},
		{"payload", func(p [][]comm.Entry[uint64]) error { return checkRecords(p, want, keys) },
			func(p [][]comm.Entry[uint64]) { mid(p).Payload[9] ^= 0x40 }},
		{"stream", func(p [][]comm.Entry[uint64]) error {
			sc := &streamCheck[uint64]{want: want}
			for _, part := range p {
				if err := sc.batch(part); err != nil {
					return err
				}
			}
			return sc.done()
		}, func(p [][]comm.Entry[uint64]) { mid(p).Key ^= 1 }},
		{"bytes", func(p [][]comm.Entry[uint64]) error {
			return checkBytes(keyio.EncodeUint64s(entryKeys(p)), keyio.EncodeUint64s(want))
		}, func(p [][]comm.Entry[uint64]) { mid(p).Key ^= 1 << 56 }},
	}
	for _, cs := range cases {
		cp := deepCopy(res.Parts)
		if err := cs.check(cp); err != nil {
			return fmt.Errorf("%s check rejects a clean copy: %w", cs.name, err)
		}
		cs.flip(cp)
		if cs.check(cp) == nil {
			return fmt.Errorf("%s check missed a corrupted byte", cs.name)
		}
	}
	return nil
}

func deepCopy(parts [][]comm.Entry[uint64]) [][]comm.Entry[uint64] {
	out := make([][]comm.Entry[uint64], len(parts))
	for i, p := range parts {
		out[i] = slices.Clone(p)
		for j := range out[i] {
			out[i][j].Payload = slices.Clone(out[i][j].Payload)
		}
	}
	return out
}

func entryKeys[K any](parts [][]comm.Entry[K]) []K {
	var out []K
	for _, p := range parts {
		for _, e := range p {
			out = append(out, e.Key)
		}
	}
	return out
}

// splitEven block-distributes xs over p processors.
func splitEven[T any](xs []T, p int) [][]T {
	parts := make([][]T, p)
	for i := range parts {
		parts[i] = xs[i*len(xs)/p : (i+1)*len(xs)/p]
	}
	return parts
}
