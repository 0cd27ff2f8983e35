package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
)

// spillBudget is a per-node memory budget of a tenth of one node's
// entry storage — small enough to force both the local sort and the
// exchange assembly out of core.
func spillBudget[K cmp.Ordered](perProc int) int64 {
	b := int64(perProc) * int64(entryBytes[K]()) / 10
	if b < 1 {
		b = 1
	}
	return b
}

// diffSpill is the spill tier's differential core: a sort forced out of
// core by a tiny memory budget must produce output byte-identical to an
// explicitly unbudgeted run (MemoryBudget < 0, immune to the
// PGXSORT_MEM_BUDGET ablation lane) and must actually have spilled.
// Both runs pin MergeKWay: the spill merge's source-order tie-break
// matches the loser tree's run order exactly, while the balanced
// handler is only key-identical on ties.
func diffSpill[K cmp.Ordered](t *testing.T, codec comm.Codec[K], parts [][]K, opts Options, label string) {
	t.Helper()
	opts.Procs = len(parts)
	opts.Merge = MergeKWay
	unbudgeted := opts
	unbudgeted.MemoryBudget = -1
	budgeted := opts
	budgeted.MemoryBudget = spillBudget[K](len(parts[0]))
	budgeted.SpillDir = t.TempDir()

	want := sortWith(t, codec, unbudgeted, parts)
	got := sortWith(t, codec, budgeted, parts)
	requireEntriesIdentical(t, codec, got, want, label)
	if want.Report.SpillBytes != 0 || want.Report.SpillReads != 0 {
		t.Fatalf("%s: unbudgeted run spilled %d/%d bytes",
			label, want.Report.SpillBytes, want.Report.SpillReads)
	}
	if got.Report.SpillBytes == 0 || got.Report.SpillReads == 0 {
		t.Fatalf("%s: budgeted run reports SpillBytes=%d SpillReads=%d, want both > 0",
			label, got.Report.SpillBytes, got.Report.SpillReads)
	}
	if got.Report.MergePath != "kway+spill" {
		t.Fatalf("%s: MergePath = %q, want kway+spill", label, got.Report.MergePath)
	}
	// The budget holds on every node: the external sort's plan fits it,
	// up to the sizing floors tiny budgets cannot pay for.
	for i, nr := range got.Report.PerNode {
		if limit := budgeted.MemoryBudget + spill.SlackBytes; nr.TempPeakBytes > limit {
			t.Fatalf("%s: node %d TempPeakBytes = %d, want <= budget %d + slack %d",
				label, i, nr.TempPeakBytes, budgeted.MemoryBudget, spill.SlackBytes)
		}
	}
}

// TestSpillDifferentialAllKinds: byte-identity under a tenth-of-the-data
// budget on every generator kind, including the duplicate-heavy shapes
// whose ties exercise the stream merge's source-order tie-break.
func TestSpillDifferentialAllKinds(t *testing.T) {
	const procs, per = 4, 4000
	for _, kind := range dist.AllKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			parts := mkParts(kind, procs, per, 31)
			diffSpill(t, comm.U64Codec{}, parts,
				Options{WorkersPerProc: 2}, kind.String())
		})
	}
}

// TestSpillDifferentialKeyTypes: the block-file round trip is
// codec-mediated, so every key type must survive it bit-exactly — the
// int64 sign flip, float64 specials under the IEEE-754 total order
// (NaNs included on the radix path), and variable-width strings whose
// inexact norm keeps the local sort resident while the exchange spills.
func TestSpillDifferentialKeyTypes(t *testing.T) {
	const procs, per = 4, 3000
	base := mkParts(dist.Normal, procs, per, 23)
	t.Run("int64", func(t *testing.T) {
		parts := make([][]int64, procs)
		for i, p := range base {
			parts[i] = make([]int64, len(p))
			for j, k := range p {
				parts[i][j] = int64(k) - int64(len(p))*500
			}
		}
		diffSpill(t, comm.I64Codec{}, parts, Options{WorkersPerProc: 2}, "int64")
	})
	t.Run("float64", func(t *testing.T) {
		specials := []float64{math.Inf(1), math.Inf(-1), 0.0,
			math.Copysign(0, -1), math.MaxFloat64, -math.SmallestNonzeroFloat64,
			math.NaN(), -math.NaN()}
		parts := make([][]float64, procs)
		for i, p := range base {
			parts[i] = make([]float64, len(p))
			for j, k := range p {
				if j < len(specials) {
					parts[i][j] = specials[(i+j)%len(specials)]
					continue
				}
				parts[i][j] = math.Float64frombits(k * 0x9e3779b97f4a7c15)
			}
		}
		diffSpill(t, comm.F64Codec{}, parts, Options{WorkersPerProc: 2}, "float64")
	})
	t.Run("string", func(t *testing.T) {
		parts := make([][]string, procs)
		for i := range parts {
			parts[i] = dist.Gen{Kind: dist.RightSkewed, Seed: 23 + uint64(i)*7919}.Strings(per, "shared-prefix-")
		}
		// Strings have no fixed-width PutKey for requireEntriesIdentical;
		// == is exact for them, so compare the entries directly.
		opts := Options{Procs: procs, WorkersPerProc: 2, Merge: MergeKWay}
		unbudgeted := opts
		unbudgeted.MemoryBudget = -1
		budgeted := opts
		// Budget against the serialized footprint, not unsafe.Sizeof's
		// 16-byte string header: a tenth of the real key bytes.
		budgeted.MemoryBudget = spillBudget[uint64](per)
		budgeted.SpillDir = t.TempDir()
		want := sortWith(t, comm.StringCodec{}, unbudgeted, parts)
		got := sortWith(t, comm.StringCodec{}, budgeted, parts)
		if got.Report.SpillBytes == 0 || got.Report.SpillReads == 0 {
			t.Fatalf("budgeted string sort reports SpillBytes=%d SpillReads=%d",
				got.Report.SpillBytes, got.Report.SpillReads)
		}
		if len(got.Parts) != len(want.Parts) {
			t.Fatalf("%d parts vs %d", len(got.Parts), len(want.Parts))
		}
		for pi := range got.Parts {
			if len(got.Parts[pi]) != len(want.Parts[pi]) {
				t.Fatalf("part %d has %d entries, want %d", pi, len(got.Parts[pi]), len(want.Parts[pi]))
			}
			for i := range got.Parts[pi] {
				g, w := got.Parts[pi][i], want.Parts[pi][i]
				if g.Key != w.Key || g.Proc != w.Proc || g.Index != w.Index {
					t.Fatalf("part %d entry %d: %+v != %+v", pi, i, g, w)
				}
			}
		}
	})
}

// TestSpillDifferentialRecords: payloads ride the spill files too —
// every record's payload must come back byte-equal after the block-file
// round trip, against a duplicate-heavy key set that forces tie-breaks.
func TestSpillDifferentialRecords(t *testing.T) {
	const procs, per = 4, 2000
	codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	recs := make([][]comm.Record[uint64], procs)
	for i := range recs {
		keys := dist.Gen{Kind: dist.FewDistinct, Seed: 71 + uint64(i)}.Keys(per)
		pays := dist.Gen{Kind: dist.Uniform, Seed: 171 + uint64(i)}.Payloads(per, 40)
		recs[i] = make([]comm.Record[uint64], per)
		for j := range recs[i] {
			recs[i][j] = comm.Record[uint64]{Key: keys[j], Payload: pays[j]}
		}
	}
	sortRecs := func(budget int64) *Result[uint64] {
		e, err := NewEngine[uint64](Options{
			Procs: procs, WorkersPerProc: 2, Merge: MergeKWay,
			MemoryBudget: budget, SpillDir: t.TempDir(),
		}, codec)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		defer e.Close()
		res, err := e.SortRecords(recs)
		if err != nil {
			t.Fatalf("SortRecords: %v", err)
		}
		return res
	}
	want := sortRecs(-1)
	// Records are wider than bare entries; a tenth of the bare-entry
	// footprint is far below the record footprint, guaranteeing spilling.
	got := sortRecs(spillBudget[uint64](per))
	if got.Report.SpillBytes == 0 {
		t.Fatal("budgeted record sort did not spill")
	}
	requireEntriesIdentical(t, comm.U64Codec{}, got, want, "records")
	for pi := range got.Parts {
		for i := range got.Parts[pi] {
			g, w := got.Parts[pi][i], want.Parts[pi][i]
			if !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("part %d entry %d: payload %q != %q", pi, i, g.Payload, w.Payload)
			}
			if !bytes.Equal(g.Payload, recs[g.Proc][g.Index].Payload) {
				t.Fatalf("part %d entry %d: payload does not match origin record", pi, i)
			}
		}
	}
}

// TestSpillAllStrategiesConverge: once the exchange spills, every merge
// strategy drains the same block files through the same stream merge, so
// overlap and balanced — normally only key-identical on ties — become
// byte-identical to the unbudgeted k-way reference.
func TestSpillAllStrategiesConverge(t *testing.T) {
	const procs, per = 4, 4000
	parts := mkParts(dist.FewDistinct, procs, per, 77)
	want := sortWith(t, comm.U64Codec{},
		Options{Procs: procs, WorkersPerProc: 2, Merge: MergeKWay, MemoryBudget: -1}, parts)
	for _, m := range []MergeStrategy{MergeKWay, MergeOverlap, MergeBalanced} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			opts := Options{Procs: procs, WorkersPerProc: 2, Merge: m,
				MemoryBudget: spillBudget[uint64](per), SpillDir: t.TempDir()}
			got := sortWith(t, comm.U64Codec{}, opts, parts)
			requireEntriesIdentical(t, comm.U64Codec{}, got, want, m.String())
			if got.Report.SpillBytes == 0 {
				t.Fatalf("%s: did not spill", m)
			}
			if want := m.String() + "+spill"; got.Report.MergePath != want {
				t.Fatalf("MergePath = %q, want %q", got.Report.MergePath, want)
			}
		})
	}
}

// TestSpillSlabBalance: repeated budgeted sorts on one engine must leave
// every node's temporary-memory tracker at zero — the spill writers,
// the decode-ahead block slabs and the stream merge all balance their
// retire/recycle accounting even though runs spill mid-batch.
func TestSpillSlabBalance(t *testing.T) {
	const procs, per = 4, 3000
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, Merge: MergeKWay,
		MemoryBudget: spillBudget[uint64](per), SpillDir: t.TempDir()})
	for i := 0; i < 3; i++ {
		parts := mkParts(dist.Uniform, procs, per, uint64(100+i))
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatalf("sort %d: %v", i, err)
		}
		if res.Report.SpillBytes == 0 {
			t.Fatalf("sort %d did not spill", i)
		}
		checkNoLeak(t, e)
	}
}

// TestSpillRetryDifferential wires the spill failpoint sites into the
// PR 8 retry battery: an injected I/O failure at a write-block or
// read-block site mid-spill fails that attempt, the scheduler retries,
// and the retried output must be byte-identical to a clean run with no
// slab accounting left behind by the aborted spill.
func TestSpillRetryDifferential(t *testing.T) {
	const procs, per = 4, 3000
	for _, site := range []string{spill.FpWriteBlock, spill.FpReadBlock} {
		site := site
		t.Run(strings.ReplaceAll(site, "/", "-"), func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, Merge: MergeKWay,
				MemoryBudget: spillBudget[uint64](per), SpillDir: t.TempDir()})
			parts := mkParts(dist.RightSkewed, procs, per, 99)
			sched := NewScheduler(e, SortManyOpts{
				Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
			})
			clean, err := sched.RunOne(context.Background(), parts)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if clean.Report.SpillBytes == 0 {
				t.Fatal("clean run did not spill; the failpoint would never fire")
			}
			// Nth: 5 lands the failure mid-run — several blocks already
			// written (or read back) when the site trips, so the abort
			// path has real partial state to unwind.
			failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 5})
			retried, err := sched.RunOne(context.Background(), parts)
			if err != nil {
				t.Fatalf("retried run: %v", err)
			}
			if fired := failpoint.Fired(site); fired != 1 {
				t.Fatalf("failpoint fired %d times, want 1", fired)
			}
			if retried.Report.Attempts != 2 {
				t.Fatalf("Attempts = %d, want 2", retried.Report.Attempts)
			}
			sameOutput(t, clean, retried)
			checkNoLeak(t, e)
		})
	}
}

// TestClassifySpillCorrupt: checksum and structural failures in spill
// files are the input-bytes-are-wrong kind — DataDependent, never
// retried as if transient, and never silently rereadable.
func TestClassifySpillCorrupt(t *testing.T) {
	err := fmt.Errorf("core: spill merge failed: %w", spill.ErrCorrupt)
	if c := Classify(err); c != FailDataDependent {
		t.Fatalf("Classify(ErrCorrupt chain) = %v, want %v", c, FailDataDependent)
	}
	wrapped := &Failure{Class: FailDataDependent, Err: err}
	if c := Classify(fmt.Errorf("outer: %w", error(wrapped))); c != FailDataDependent {
		t.Fatalf("Classify(wrapped Failure) = %v, want %v", c, FailDataDependent)
	}
}

// TestParseMemBudget pins the -mem-budget vocabulary shared by the
// CLIs, the service and the PGXSORT_MEM_BUDGET ablation lane.
func TestParseMemBudget(t *testing.T) {
	good := map[string]int64{
		"":        0,
		"0":       0,
		"1048576": 1 << 20,
		"64k":     64 << 10,
		"64K":     64 << 10,
		"8M":      8 << 20,
		"2g":      2 << 30,
	}
	for in, want := range good {
		got, err := ParseMemBudget(in)
		if err != nil || got != want {
			t.Fatalf("ParseMemBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"-1", "64KB", "x", "1.5G", "k"} {
		if _, err := ParseMemBudget(in); err == nil {
			t.Fatalf("ParseMemBudget(%q) succeeded, want error", in)
		}
	}
}
