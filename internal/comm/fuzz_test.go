package comm

import (
	"bytes"
	"errors"
	"testing"

	"pgxsort/internal/alloc"
)

// checkDecode decodes n entries from payload under c, with and without a
// slab pool, and asserts the decoder either fails cleanly or returns
// exactly n entries whose re-encoding is the bytes it consumed.
func checkDecode[K comparable](t *testing.T, name string, payload []byte, n int, c Codec[K]) {
	t.Helper()
	ents, rest, err := DecodeEntries(payload, n, c)
	var pool alloc.SlabPool[Entry[K]]
	sents, srest, serr := DecodeEntriesSlab(payload, n, c, &pool)
	if (err == nil) != (serr == nil) {
		t.Fatalf("%s: DecodeEntries err %v, DecodeEntriesSlab err %v", name, err, serr)
	}
	if err != nil {
		if !bytes.Equal(rest, payload) || !bytes.Equal(srest, payload) {
			t.Fatalf("%s: a failed decode must hand back the input bytes", name)
		}
		return
	}
	if len(ents) != n || len(sents) != n {
		t.Fatalf("%s: decoded %d and %d entries, want %d", name, len(ents), len(sents), n)
	}
	if len(rest) > len(payload) || len(srest) != len(rest) {
		t.Fatalf("%s: rest %d / %d bytes of a %d-byte payload", name, len(rest), len(srest), len(payload))
	}
	consumed := payload[:len(payload)-len(rest)]
	if re := EncodeEntries(nil, ents, c); !bytes.Equal(re, consumed) {
		t.Fatalf("%s: re-encoding %d entries gives %d bytes, decoder consumed %d", name, n, len(re), len(consumed))
	}
	for i := range ents {
		if ents[i].Key != sents[i].Key || ents[i].Proc != sents[i].Proc || ents[i].Index != sents[i].Index ||
			!bytes.Equal(ents[i].Payload, sents[i].Payload) {
			t.Fatalf("%s: entry %d differs between the pooled and plain decode", name, i)
		}
	}
	pool.Put(sents)
}

// FuzzDecodeEntries drives the TCP receive path's untrusted half: a frame
// payload size checked by CheckFrame, then an entry count and payload
// bytes decoded under the uint64, string and record codecs. Every input
// must end in a clean error or a decode that re-encodes to the bytes it
// consumed; none may panic, hang or size an allocation from the count
// alone.
func FuzzDecodeEntries(f *testing.F) {
	u64 := []Entry[uint64]{{Key: 7, Proc: 1, Index: 2}, {Key: 1 << 63, Proc: 3, Index: 4}}
	strs := []Entry[string]{{Key: "", Proc: 0, Index: 1}, {Key: "prefix-shared-key", Proc: 2, Index: 9}}
	recs := []Entry[uint64]{{Key: 5, Payload: []byte("payload"), Proc: 1}, {Key: 6, Proc: 2, Index: 3}}
	rc := NewRecordCodec[uint64](U64Codec{})
	for _, seed := range [][]byte{
		EncodeEntries(nil, u64, U64Codec{}),
		EncodeEntries(nil, strs, StringCodec{}),
		EncodeEntries(nil, recs, rc),
	} {
		f.Add(seed, int32(2), uint32(0))
		f.Add(seed[:len(seed)-3], int32(2), uint32(0))
		f.Add(seed, int32(-1), uint32(len(seed)))
		f.Add(seed, int32(1<<30), uint32(0))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, int32(1), uint32(4))
	f.Fuzz(func(t *testing.T, payload []byte, count int32, maxFrame uint32) {
		if err := CheckFrame(len(payload), int(maxFrame)); err != nil {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("CheckFrame error %v does not wrap ErrFrameTooLarge", err)
			}
			return // the receiver drops the connection before decoding
		}
		n := int(count)
		checkDecode(t, "uint64", payload, n, Codec[uint64](U64Codec{}))
		checkDecode(t, "string", payload, n, Codec[string](StringCodec{}))
		checkDecode(t, "record", payload, n, Codec[uint64](rc))
	})
}
