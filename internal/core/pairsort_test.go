package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// TestPairSortProvenance drives the radix local sort's (key, index) pair
// path end to end and asserts what writing the entries from sorted pairs
// must preserve: every output entry's key and payload are its origin
// row's (input[Proc][Index]), equal keys from one processor keep their
// input order, and the local sort's temporary memory is exactly the pair
// slab plus the scratch of its largest top-byte group.
func TestPairSortProvenance(t *testing.T) {
	const p, per = 3, 2000
	keysOf := func(kind dist.Kind) [][]uint64 {
		parts := make([][]uint64, p)
		for i := range parts {
			parts[i] = dist.Gen{Kind: kind, Seed: uint64(40 + i)}.Keys(per)
		}
		return parts
	}
	same := func(a, b uint64) bool { return a == b }
	for _, kind := range []dist.Kind{dist.Uniform, dist.RightSkewed, dist.Constant} {
		t.Run(kind.String(), func(t *testing.T) {
			checkPairProvenance(t, comm.U64Codec{}, keysOf(kind), nil, same)
		})
	}

	t.Run("float64-specials", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0,
			math.Inf(1), math.Inf(-1), 1.5, -1.5}
		parts := make([][]float64, p)
		for i := range parts {
			for j := 0; j < per; j++ {
				f := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					f = specials[rng.Intn(len(specials))]
				}
				parts[i] = append(parts[i], f)
			}
		}
		checkPairProvenance(t, comm.F64Codec{}, parts, nil,
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	})

	t.Run("records", func(t *testing.T) {
		keys := keysOf(dist.RightSkewed)
		payloads := make([][][]byte, p)
		for i, part := range keys {
			for j, k := range part {
				pay := make([]byte, 16)
				binary.LittleEndian.PutUint64(pay, k)
				binary.LittleEndian.PutUint64(pay[8:], uint64(i<<32|j))
				payloads[i] = append(payloads[i], pay)
			}
		}
		checkPairProvenance(t, comm.NewRecordCodec[uint64](comm.U64Codec{}), keys, payloads, same)
	})

	t.Run("strings-inexact-norm", func(t *testing.T) {
		// Shared 8-byte prefixes collide in the norm, so the equal-norm
		// runs are finished by the two-level comparison.
		rng := rand.New(rand.NewSource(9))
		parts := make([][]string, p)
		for i := range parts {
			for j := 0; j < per; j++ {
				parts[i] = append(parts[i], fmt.Sprintf("prefix-%c-%d", 'a'+rng.Intn(3), rng.Intn(40)))
			}
		}
		checkPairProvenance(t, comm.StringCodec{}, parts, nil, func(a, b string) bool { return a == b })
	})
}

// checkPairProvenance sorts keys (records when payloads is non-nil) on a
// resident engine at one and three workers per processor and checks the
// provenance, stability and temporary-memory properties of the pair path.
func checkPairProvenance[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys [][]K, payloads [][][]byte, same func(a, b K) bool) {
	t.Helper()
	n := 0
	recs := make([][]comm.Record[K], len(keys))
	for i, part := range keys {
		n += len(part)
		if payloads != nil {
			for j, k := range part {
				recs[i] = append(recs[i], comm.Record[K]{Key: k, Payload: payloads[i][j]})
			}
		}
	}
	checkEntry := func(e comm.Entry[K]) {
		t.Helper()
		if int(e.Proc) >= len(keys) || int(e.Index) >= len(keys[e.Proc]) {
			t.Fatalf("entry %v: provenance (%d, %d) out of range", e.Key, e.Proc, e.Index)
		}
		if !same(e.Key, keys[e.Proc][e.Index]) {
			t.Fatalf("entry key %v != input[%d][%d] = %v", e.Key, e.Proc, e.Index, keys[e.Proc][e.Index])
		}
		var want []byte
		if payloads != nil {
			want = payloads[e.Proc][e.Index]
		}
		if !bytes.Equal(e.Payload, want) || (want == nil) != (e.Payload == nil) {
			t.Fatalf("entry (%d, %d): payload %x, want %x", e.Proc, e.Index, e.Payload, want)
		}
	}

	for _, workers := range []int{1, 3} {
		// MemoryBudget -1: the pair path is the resident local sort; an
		// env-forced budget would send it through spillSort instead.
		eng, err := NewEngine[K](Options{Procs: len(keys), WorkersPerProc: workers, MemoryBudget: -1}, codec)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var res *Result[K]
		if payloads != nil {
			res, err = eng.SortRecords(recs)
		} else {
			res, err = eng.Sort(keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.LocalSortPath != "radix" {
			t.Fatalf("workers %d: LocalSortPath = %q, want radix", workers, res.Report.LocalSortPath)
		}

		got := 0
		var prev comm.Entry[K]
		lastIndex := map[uint32]uint32{} // within the current equal-key run
		for _, part := range res.Parts {
			for _, e := range part {
				checkEntry(e)
				if got == 0 || !same(e.Key, prev.Key) {
					clear(lastIndex)
				} else if last, ok := lastIndex[e.Proc]; ok && e.Index <= last {
					t.Fatalf("workers %d: equal keys %v from proc %d out of input order: index %d after %d",
						workers, e.Key, e.Proc, e.Index, last)
				}
				lastIndex[e.Proc] = e.Index
				prev = e
				got++
			}
		}
		if got != n {
			t.Fatalf("workers %d: %d entries out, want %d", workers, got, n)
		}

		// Step 1 alone on node 0: sorted, provenance intact, and the only
		// tracked temporary memory is the pair buffer and its scratch.
		node := eng.nodes[0]
		s := &sortRun[K]{node: node, opts: eng.opts, codec: eng.codec, ctx: context.Background(), cmps: eng.comparators()}
		if payloads != nil {
			s.inputRec = recs[0]
		} else {
			s.input = keys[0]
		}
		node.tracker.Reset()
		entries, err := s.localSort()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			checkEntry(e)
			if e.Proc != 0 {
				t.Fatalf("local sort entry %d: Proc %d, want 0", i, e.Proc)
			}
			if i > 0 && s.cmps.entryLess(e, entries[i-1]) {
				t.Fatalf("workers %d: local sort unsorted at %d", workers, i)
			}
		}
		norms := make([]uint64, len(keys[0]))
		for i, k := range keys[0] {
			norms[i] = s.cmps.norm(k)
		}
		rows := int64(len(keys[0]))
		pairBytes := (rows + int64(largestTopByteGroup(norms))) * int64(unsafe.Sizeof(keyIndex[K]{}))
		if peak := node.tracker.Peak(); peak != pairBytes {
			t.Fatalf("workers %d: local sort temp peak %d bytes, want the pair slab plus the largest group's scratch (%d)",
				workers, peak, pairBytes)
		}
		if live := node.tracker.Live(); live != 0 {
			t.Fatalf("workers %d: %d temp bytes still live after the local sort", workers, live)
		}
		// No more than an entry-sized scratch: at most 32 B against 40 B
		// a key for 8-byte keys (48 against 48 for strings, whose pairs
		// carry the string header).
		if scratch := rows * int64(entryBytes[K]()); pairBytes > scratch ||
			(unsafe.Sizeof(*new(K)) == 8 && pairBytes >= scratch) {
			t.Fatalf("pair slabs %d bytes not below the %d-byte entry scratch", pairBytes, scratch)
		}
		s.recycleRetired()
	}
}

// largestTopByteGroup is the size of the largest group of norms sharing
// the highest byte on which any two norms differ (0 when all are equal):
// the scratch the pair sort's per-group radix sorts need.
func largestTopByteGroup(norms []uint64) int {
	var diff uint64
	for _, v := range norms {
		diff |= v ^ norms[0]
	}
	if diff == 0 {
		return 0
	}
	shift := (63 - bits.LeadingZeros64(diff)) / 8 * 8
	var counts [256]int
	for _, v := range norms {
		counts[byte(v>>shift)]++
	}
	return slices.Max(counts[:])
}
