package core

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
)

// appendKeyBytes appends k's exact canonical wire form: the VarCodec
// framing for variable-width keys, the fixed KeySize form otherwise.
// Equal keys encode identically, so concatenations compare sorted key
// sequences byte for byte.
func appendKeyBytes[K cmp.Ordered](codec comm.Codec[K], dst []byte, k K) []byte {
	if vc, ok := codec.(comm.VarCodec[K]); ok {
		return vc.AppendKey(dst, k)
	}
	n := len(dst)
	dst = append(dst, make([]byte, codec.KeySize())...)
	codec.PutKey(dst[n:], k)
	return dst
}

// writeSpool lands keys in a run file in arrival order, the way the
// streaming ingress does, and returns the path.
func writeSpool[K cmp.Ordered](t *testing.T, codec comm.Codec[K], dir string, keys []K) string {
	t.Helper()
	path := filepath.Join(dir, "upload.spool")
	w, err := spill.NewWriter(path, codec, 4<<10)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	entries := make([]comm.Entry[K], len(keys))
	for i, k := range keys {
		entries[i] = comm.Entry[K]{Key: k}
	}
	if err := w.Append(entries); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return path
}

// drainSpooled drains the stream into the canonical concatenated key
// encoding.
func drainSpooled[K cmp.Ordered](t *testing.T, codec comm.Codec[K], res *SpooledResult[K]) []byte {
	t.Helper()
	var out []byte
	n := 0
	for {
		batch, err := res.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			out = appendKeyBytes(codec, out, e.Key)
		}
		n += len(batch)
	}
	if n != res.N {
		t.Fatalf("stream yielded %d entries, result promised %d", n, res.N)
	}
	return out
}

// residentKeyBytes sorts keys through the resident pipeline and encodes
// the globally sorted key sequence — the byte-identity reference.
func residentKeyBytes[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K, procs int) []byte {
	t.Helper()
	e, err := NewEngine[K](Options{Procs: procs, WorkersPerProc: 2}, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	parts := make([][]K, procs)
	per := (len(keys) + procs - 1) / procs
	for i := range parts {
		lo := min(i*per, len(keys))
		hi := min(lo+per, len(keys))
		parts[i] = keys[lo:hi]
	}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	var out []byte
	for _, p := range res.Parts {
		for _, en := range p {
			out = appendKeyBytes(codec, out, en.Key)
		}
	}
	return out
}

// spooledCase runs one SortSpooled end to end under a tiny budget and
// checks byte-identity, the tracker-accounted peak bound, and scratch
// cleanup.
func spooledCase[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K) {
	t.Helper()
	const procs = 3
	spillDir := t.TempDir()
	spoolDir := t.TempDir()
	path := writeSpool(t, codec, spoolDir, keys)

	eb := int64(entryBytes[K]())
	// A budget around a tenth of the dataset forces multi-run externals.
	budget := int64(len(keys)) * eb / 10
	e, err := NewEngine[K](Options{
		Procs: procs, WorkersPerProc: 2,
		MemoryBudget: budget, SpillDir: spillDir,
	}, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()

	res, err := e.SortSpooled(context.Background(), SpooledInput{Path: path, N: len(keys)})
	if err != nil {
		t.Fatalf("SortSpooled: %v", err)
	}
	got := drainSpooled(t, codec, res)
	if err := res.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := residentKeyBytes(t, codec, keys, procs)
	if !bytes.Equal(got, want) {
		t.Fatalf("spooled output diverges from resident sort (%d vs %d bytes)", len(got), len(want))
	}

	// The whole point: temp peak is bounded by p budgets (each node forms
	// runs from its section within its own), and stays strictly under
	// the dataset's resident size.
	peak := res.Report.TempPeakBytes
	ceiling := int64(procs)*budget + spill.SlackBytes
	dataset := int64(len(keys)) * eb
	if peak == 0 || peak > ceiling {
		t.Fatalf("TempPeakBytes = %d, want in (0, %d] (dataset is %d bytes)",
			peak, ceiling, dataset)
	}
	if peak >= dataset {
		t.Fatalf("TempPeakBytes = %d not under the %d-byte dataset — nothing was out of core",
			peak, dataset)
	}
	if res.Report.SpillBytes == 0 || res.Report.SpillReads == 0 {
		t.Fatalf("spooled sort reports SpillBytes=%d SpillReads=%d, want both > 0",
			res.Report.SpillBytes, res.Report.SpillReads)
	}
	if res.Report.MergePath != "spooled-kway+spill" {
		t.Fatalf("MergePath = %q", res.Report.MergePath)
	}

	// Scratch is gone; the caller-owned spool file is not.
	left, err := filepath.Glob(filepath.Join(spillDir, "pgxsort-spool-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("scratch dirs left behind after Close: %v", left)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spool input should remain caller-owned: %v", err)
	}
}

// TestSortSpooled checks the out-of-core spooled path against the
// resident pipeline for every key type, including the float64 total
// order's hard cases.
func TestSortSpooled(t *testing.T) {
	const n = 50000
	rng := dist.NewRNG(7)
	t.Run("uint64", func(t *testing.T) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 5000 // heavy ties
		}
		spooledCase[uint64](t, comm.U64Codec{}, keys)
	})
	t.Run("float64", func(t *testing.T) {
		keys := make([]float64, n)
		for i := range keys {
			switch i % 97 {
			case 0:
				keys[i] = math.NaN()
			case 1:
				keys[i] = math.Inf(1)
			case 2:
				keys[i] = math.Copysign(0, -1)
			default:
				keys[i] = float64(int64(rng.Uint64()%2000) - 1000)
			}
		}
		spooledCase[float64](t, comm.F64Codec{}, keys)
	})
	t.Run("string", func(t *testing.T) {
		keys := make([]string, n)
		alpha := "abcdefgh"
		for i := range keys {
			// Shared 8-byte prefixes exercise the inexact-norm fallback.
			b := []byte("prefixxx____")
			for j := 8; j < len(b); j++ {
				b[j] = alpha[rng.Uint64()%8]
			}
			keys[i] = string(b)
		}
		spooledCase[string](t, comm.StringCodec{}, keys)
	})
}

// TestSortSpooledEmpty covers the zero-entry upload.
func TestSortSpooledEmpty(t *testing.T) {
	dir := t.TempDir()
	path := writeSpool[uint64](t, comm.U64Codec{}, dir, nil)
	e, err := NewEngine[uint64](Options{Procs: 2}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.SortSpooled(context.Background(), SpooledInput{Path: path, N: 0})
	if err != nil {
		t.Fatalf("SortSpooled: %v", err)
	}
	batch, err := res.Next()
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty spool yielded %d entries, err %v", len(batch), err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunOneSpooledRetry arms the spool-read failpoint: the first attempt
// dies mid-run-formation, the scheduler classifies it Transient and
// re-runs it against the still-on-disk spool file, and the second attempt
// streams the correct bytes.
func TestRunOneSpooledRetry(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	const site = "serve/spool-read"
	failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeError})

	const n = 5000
	rng := dist.NewRNG(11)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	dir := t.TempDir()
	path := writeSpool[uint64](t, comm.U64Codec{}, dir, keys)

	e, err := NewEngine[uint64](Options{
		Procs: 2, WorkersPerProc: 2,
		MemoryBudget: 64 << 10, SpillDir: t.TempDir(),
	}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := NewScheduler(e, SortManyOpts{Retry: RetryPolicy{MaxAttempts: 3}})

	res, err := s.RunOneSpooled(context.Background(), SpooledInput{Path: path, N: n, ReadSite: site})
	if err != nil {
		t.Fatalf("RunOneSpooled: %v", err)
	}
	got := drainSpooled[uint64](t, comm.U64Codec{}, res)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Attempts < 2 {
		t.Fatalf("Attempts = %d, want >= 2 (failpoint should have fired)", res.Report.Attempts)
	}
	if fired := failpoint.Fired(site); fired < 1 {
		t.Fatalf("failpoint fired %d times", fired)
	}
	want := residentKeyBytes[uint64](t, comm.U64Codec{}, keys, 2)
	if !bytes.Equal(got, want) {
		t.Fatal("retried spooled sort diverges from resident sort")
	}

	// The admission slot must be free again after Close: a second run
	// through the same scheduler completes.
	res2, err := s.RunOneSpooled(context.Background(), SpooledInput{Path: path, N: n})
	if err != nil {
		t.Fatalf("second RunOneSpooled: %v", err)
	}
	drainSpooled[uint64](t, comm.U64Codec{}, res2)
	if err := res2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResultCursor checks the resident result's egress cursor yields the
// parts in global order.
func TestResultCursor(t *testing.T) {
	e, err := NewEngine[uint64](Options{Procs: 3}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := dist.NewRNG(3)
	parts := make([][]uint64, 3)
	for i := range parts {
		parts[i] = make([]uint64, 500)
		for j := range parts[i] {
			parts[i][j] = rng.Uint64() % 1000
		}
	}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	cur := res.Cursor()
	for {
		batch, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		for _, en := range batch {
			got = append(got, en.Key)
		}
	}
	want := res.Keys()
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cursor key %d = %d, want %d", i, got[i], want[i])
		}
	}
}
