//go:build unix

package core

import (
	"os"
	"os/exec"
	"syscall"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// TestSpillBoundedOpenFiles: a 16 KiB-budget sort forms hundreds of
// chunk runs per node, and must still succeed under a 64-descriptor
// limit — merges read at most a plan's fan-in of runs at once — with
// output byte-identical to the unbudgeted sort. The limit is lowered in
// a child copy of the test binary so it cannot starve other tests.
func TestSpillBoundedOpenFiles(t *testing.T) {
	const childEnv = "PGXSORT_TEST_FD_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSpillBoundedOpenFiles$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sort under a 64-file limit: %v\n%s", err, out)
		}
		return
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	lim.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}

	const procs, per = 2, 60_000
	parts := mkParts(dist.Uniform, procs, per, 41)
	opts := Options{Procs: procs, WorkersPerProc: 1, Merge: MergeKWay}
	unbudgeted := opts
	unbudgeted.MemoryBudget = -1
	budgeted := opts
	budgeted.MemoryBudget = 16 << 10
	budgeted.SpillDir = t.TempDir()
	want := sortWith(t, comm.U64Codec{}, unbudgeted, parts)
	got := sortWith(t, comm.U64Codec{}, budgeted, parts)
	if got.Report.SpillBytes == 0 {
		t.Fatal("budgeted sort did not spill")
	}
	requireEntriesIdentical(t, comm.U64Codec{}, got, want, "64-file limit")
}
