package lsort

import (
	"math"
	"sort"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

func idU64(k uint64) uint64 { return k }

// TestRadixSortKinds checks RadixSort against sort.Slice on every
// distribution kind, including the ones that exercise the counting-skip
// passes (sorted, few-distinct, constant).
func TestRadixSortKinds(t *testing.T) {
	for _, kind := range dist.AllKinds {
		t.Run(kind.String(), func(t *testing.T) {
			keys := dist.Gen{Kind: kind, Seed: 7}.Keys(5000)
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			got := append([]uint64(nil), keys...)
			scratch := make([]uint64, len(got))
			RadixSort(got, scratch, idU64, 64)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestParallelRadixSortKinds checks the chunked-parallel variant across
// worker counts and kinds.
func TestParallelRadixSortKinds(t *testing.T) {
	for _, kind := range dist.AllKinds {
		for _, workers := range []int{1, 2, 3, 8} {
			keys := dist.Gen{Kind: kind, Seed: 11}.Keys(4097)
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			got := append([]uint64(nil), keys...)
			scratch := make([]uint64, len(got))
			ParallelRadixSort(got, scratch, idU64, 64,
				func(a, b uint64) bool { return a < b }, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: mismatch at %d", kind, workers, i)
				}
			}
		}
	}
}

// TestRadixSortStable: sequential LSD radix must keep the input order of
// equal keys (the property the engine relies on for deterministic origin
// order on the sequential path).
func TestRadixSortStable(t *testing.T) {
	type rec struct {
		key uint64
		seq int
	}
	var s []rec
	g := dist.Gen{Kind: dist.FewDistinct, Seed: 3}
	for i, k := range g.Keys(2000) {
		s = append(s, rec{key: k, seq: i})
	}
	scratch := make([]rec, len(s))
	RadixSort(s, scratch, func(r rec) uint64 { return r.key }, 64)
	for i := 1; i < len(s); i++ {
		if s[i-1].key > s[i].key {
			t.Fatalf("unsorted at %d", i)
		}
		if s[i-1].key == s[i].key && s[i-1].seq > s[i].seq {
			t.Fatalf("stability violated at %d: seq %d before %d", i, s[i-1].seq, s[i].seq)
		}
	}
}

// TestParallelRadixSortStable: the chunked-parallel radix sort must be
// stable for every worker count — equal keys keep input order across
// chunk boundaries because the balanced merges and CoRank splits are
// tie-stable. This pins the property the spill tier's budget-chunked
// local sort relies on: the output is independent of chunking.
func TestParallelRadixSortStable(t *testing.T) {
	type rec struct {
		key uint64
		seq int
	}
	var s []rec
	g := dist.Gen{Kind: dist.FewDistinct, Seed: 7}
	for i, k := range g.Keys(60000) {
		s = append(s, rec{key: k, seq: i})
	}
	want := append([]rec(nil), s...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	for _, workers := range []int{1, 2, 3, 4, 8} {
		got := append([]rec(nil), s...)
		scratch := make([]rec, len(got))
		ParallelRadixSort(got, scratch, func(r rec) uint64 { return r.key }, 64,
			func(x, y rec) bool { return x.key < y.key }, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mismatch at %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRadixDistribute: the MSD pass followed by a stable radix sort of
// each group must equal a stable sort of the input, on every kind — the
// full-width case included, whose top byte reaches 0xff — and an
// all-equal input must come back in input order with nil bounds.
func TestRadixDistribute(t *testing.T) {
	type rec struct {
		key uint64
		seq int
	}
	key := func(r rec) uint64 { return r.key }
	for _, kind := range append([]dist.Kind{-1}, dist.AllKinds...) {
		var keys []uint64
		if kind < 0 {
			keys = dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(5000)
			for i := range keys {
				keys[i] *= 0x9e3779b97f4a7c15 // spread over all 64 bits
			}
		} else {
			keys = dist.Gen{Kind: kind, Seed: 5}.Keys(5000)
		}
		in := make([]rec, len(keys))
		for i, k := range keys {
			in[i] = rec{key: k, seq: i}
		}
		want := append([]rec(nil), in...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })

		got := make([]rec, len(in))
		bounds := RadixDistribute(got, len(in), func(i int) rec { return in[i] }, key)
		if kind == dist.Constant {
			if bounds != nil {
				t.Fatalf("constant input: bounds %v, want nil", bounds)
			}
		} else if len(bounds) != 257 || bounds[0] != 0 || bounds[256] != len(in) {
			t.Fatalf("kind %v: bad bounds (len %d)", kind, len(bounds))
		}
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			RadixSort(got[lo:hi], make([]rec, hi-lo), key, 64)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %v: mismatch at %d: %+v != %+v", kind, i, got[i], want[i])
			}
		}
	}
}

// TestRadixSortKeyTypes runs the differential check over every codec key
// type through its KeyNorm, including the float64 specials whose order
// only the norm defines.
func TestRadixSortKeyTypes(t *testing.T) {
	raw := dist.Gen{Kind: dist.Uniform, Seed: 13, Domain: 0}.Keys(3000)

	t.Run("uint64", func(t *testing.T) {
		checkRadixNorm(t, raw, comm.U64Codec{}.Norm, 64)
	})
	t.Run("uint32", func(t *testing.T) {
		vals := make([]uint32, len(raw))
		for i, k := range raw {
			vals[i] = uint32(k)
		}
		checkRadixNorm(t, vals, comm.U32Codec{}.Norm, 32)
	})
	t.Run("int64", func(t *testing.T) {
		vals := make([]int64, len(raw))
		for i, k := range raw {
			vals[i] = int64(k ^ (k << 31)) // mix signs
		}
		checkRadixNorm(t, vals, comm.I64Codec{}.Norm, 64)
	})
	t.Run("float64", func(t *testing.T) {
		vals := make([]float64, 0, len(raw)+8)
		for i, k := range raw {
			f := float64(int64(k)) / 1e3
			if i%2 == 0 {
				f = -f
			}
			vals = append(vals, f)
		}
		vals = append(vals, math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(math.Float64bits(math.NaN())|1<<63),
			math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64)
		checkRadixNorm(t, vals, comm.F64Codec{}.Norm, 64)
	})
}

// checkRadixNorm sorts vals with RadixSort over norm and with
// sort.SliceStable over norm-compare, and requires identical key
// sequences (compared by norm image, so NaN payloads stay comparable).
func checkRadixNorm[K any](t *testing.T, vals []K, norm func(K) uint64, bits int) {
	t.Helper()
	want := append([]K(nil), vals...)
	sort.SliceStable(want, func(i, j int) bool { return norm(want[i]) < norm(want[j]) })

	got := append([]K(nil), vals...)
	scratch := make([]K, len(got))
	RadixSort(got, scratch, norm, bits)
	for i := range want {
		if norm(got[i]) != norm(want[i]) {
			t.Fatalf("mismatch at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestRadixSortNarrowBits: passes above keyBits must be skippable without
// affecting the result when the image honors the declared width.
func TestRadixSortNarrowBits(t *testing.T) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 29}.Keys(2000) // domain 2^20
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := append([]uint64(nil), keys...)
	RadixSort(got, make([]uint64, len(got)), idU64, 20)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRadixSortEdgeCases(t *testing.T) {
	// Empty and single-element inputs.
	RadixSort(nil, nil, idU64, 64)
	one := []uint64{9}
	RadixSort(one, nil, idU64, 64)
	if one[0] != 9 {
		t.Fatal("single element changed")
	}
	// Two elements out of order.
	two := []uint64{5, 1}
	RadixSort(two, make([]uint64, 2), idU64, 64)
	if two[0] != 1 || two[1] != 5 {
		t.Fatalf("two-element sort wrong: %v", two)
	}
	// Undersized scratch must panic loudly, not corrupt.
	defer func() {
		if recover() == nil {
			t.Fatal("undersized scratch did not panic")
		}
	}()
	RadixSort([]uint64{3, 2, 1}, make([]uint64, 1), idU64, 64)
}

// FuzzRadixSort differentially fuzzes RadixSort against sort.Slice on
// uint64 keys derived from the fuzzer's bytes.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(64))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(8))
	f.Add([]byte{255, 254, 253}, uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, bits uint8) {
		keyBits := int(bits%64) + 1
		mask := uint64(1)<<keyBits - 1
		if keyBits == 64 {
			mask = ^uint64(0)
		}
		var keys []uint64
		for i := 0; i+8 <= len(data); i += 8 {
			var k uint64
			for j := 0; j < 8; j++ {
				k = k<<8 | uint64(data[i+j])
			}
			keys = append(keys, k&mask)
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := append([]uint64(nil), keys...)
		RadixSort(got, make([]uint64, len(got)), idU64, keyBits)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d: got %d want %d (keyBits %d)", i, got[i], want[i], keyBits)
			}
		}
	})
}
