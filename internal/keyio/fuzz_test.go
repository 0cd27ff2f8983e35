package keyio

import (
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// chunkReader hands out its data at most size bytes per Read and reports
// io.EOF with the final bytes when eofWithData is set, so the decoder
// sees both ways a reader may end.
type chunkReader struct {
	data        []byte
	size        int
	eofWithData bool
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.size, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	if len(r.data) == 0 && r.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// streamAll drains a StreamDecoder over data and returns the keys and
// the terminal error. A decoder that keeps answering without consuming
// input or ending fails the test instead of hanging it.
func streamAll[K any](t *testing.T, data []byte, scan ScanFunc[K], bufBytes, chunk int, eofWithData bool) ([]K, error) {
	t.Helper()
	d := NewStreamDecoder(&chunkReader{data: data, size: chunk, eofWithData: eofWithData}, scan, bufBytes)
	var keys []K
	for calls := 0; ; calls++ {
		if calls > len(data)+2 {
			t.Fatalf("decoder made no progress after %d calls on %d bytes", calls, len(data))
		}
		var err error
		keys, err = d.Next(keys)
		if err != nil {
			if d.BytesRead() != int64(len(data)) {
				t.Fatalf("BytesRead %d, stream had %d bytes", d.BytesRead(), len(data))
			}
			return keys, err
		}
	}
}

// checkStream asserts the streamed decode agrees with the one-shot
// decoder: a clean io.EOF exactly when the whole input is well formed
// (with the same keys), ErrTruncated exactly when it is not.
func checkStream[K any](t *testing.T, name string, data []byte, scan ScanFunc[K], decode func([]byte) ([]K, error), eq func(a, b K) bool, bufBytes, chunk int, eofWithData bool) {
	t.Helper()
	got, err := streamAll(t, data, scan, bufBytes, chunk, eofWithData)
	want, werr := decode(data)
	switch {
	case errors.Is(err, io.EOF):
		if werr != nil {
			t.Fatalf("%s: stream ended cleanly but the one-shot decode fails: %v", name, werr)
		}
		if !slices.EqualFunc(got, want, eq) {
			t.Fatalf("%s: streamed %d keys differ from the one-shot decode's %d", name, len(got), len(want))
		}
	case errors.Is(err, ErrTruncated):
		if werr == nil {
			t.Fatalf("%s: stream reported truncation but the one-shot decode accepts the input", name)
		}
	default:
		t.Fatalf("%s: unexpected terminal error %v", name, err)
	}
}

// FuzzStreamDecoder feeds arbitrary bytes — the HTTP ingress's untrusted
// request bodies — through the StreamDecoder with every scan function, a
// small read buffer and short reads. Every stream must end in io.EOF or
// ErrTruncated, agreeing with the one-shot decoders; none may panic or
// stop making progress.
func FuzzStreamDecoder(f *testing.F) {
	f.Add(EncodeUint64s([]uint64{1, 2, 3, math.MaxUint64}), uint8(3), uint8(5), false)
	f.Add(EncodeFloat64s([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1)}), uint8(7), uint8(1), true)
	f.Add(EncodeStrings([]string{"", "a", "prefix-shared-key", "zz"}), uint8(2), uint8(3), false)
	f.Add(EncodeStrings([]string{"a long string record outgrowing the window"})[:20], uint8(4), uint8(2), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}, uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, buf, chunk uint8, eofWithData bool) {
		bufBytes := 1 + int(buf%64)
		size := 1 + int(chunk%32)
		checkStream(t, "uint64", data, ScanUint64s, DecodeUint64s,
			func(a, b uint64) bool { return a == b }, bufBytes, size, eofWithData)
		checkStream(t, "float64", data, ScanFloat64s, DecodeFloat64s,
			func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }, bufBytes, size, eofWithData)
		checkStream(t, "string", data, ScanStrings, DecodeStrings,
			func(a, b string) bool { return a == b }, bufBytes, size, eofWithData)
	})
}
