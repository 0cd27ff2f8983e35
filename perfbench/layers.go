package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"pgxsort"
	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spark"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// replayReps is how many times each layer replay is repeated; the
// median is reported.
const replayReps = 5

// timeReps runs prep untimed and fn timed reps times, each fn call under
// its own span, and returns the median fn time.
func timeReps(op ref, name, layer string, reps int, prep, fn func()) time.Duration {
	ts := make([]float64, reps)
	for i := range ts {
		if prep != nil {
			prep()
		}
		sp := op.child(name, layer)
		t0 := time.Now()
		fn()
		ts[i] = float64(time.Since(t0))
		sp.end()
	}
	return time.Duration(median(ts))
}

// replayLayers pushes one node's share of the workload's input through
// the exported functions of lsort, comm, spill, keyio, transport and
// datamgr, timing each directly. payloads, when non-nil, holds 16 bytes
// per key that ride with the entries as the records workload's do.
func (b *bench) replayLayers(share []uint64, codec comm.Codec[uint64], payloads []byte) error {
	op := b.tr.op("replay:layers")
	defer op.end()
	n := len(share)
	ents := make([]comm.Entry[uint64], n)
	for i, k := range share {
		ents[i] = comm.Entry[uint64]{Key: k, Index: uint32(i)}
		if payloads != nil {
			ents[i].Payload = payloads[16*i : 16*i+16]
		}
	}
	less := func(x, y comm.Entry[uint64]) bool { return x.Key < y.Key }
	perKey := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// lsort: radix over bare keys and over entries, and a p-way merge.
	bare, bareScratch := make([]uint64, n), make([]uint64, n)
	d := timeReps(op, "lsort.RadixSort(uint64)", "lsort", replayReps, func() { copy(bare, share) },
		func() { lsort.RadixSort(bare, bareScratch, func(k uint64) uint64 { return k }, 64) })
	b.m.set("lsort.radix_bare_ns_per_key", perKey(d))
	work, scratch := make([]comm.Entry[uint64], n), make([]comm.Entry[uint64], n)
	d = timeReps(op, "lsort.RadixSort(Entry)", "lsort", replayReps, func() { copy(work, ents) },
		func() { lsort.RadixSort(work, scratch, func(e comm.Entry[uint64]) uint64 { return e.Key }, 64) })
	b.m.set("lsort.radix_entry_ns_per_key", perKey(d))
	runs := splitEven(slices.Clone(ents), procs)
	for _, r := range runs {
		slices.SortStableFunc(r, func(x, y comm.Entry[uint64]) int { return cmp.Compare(x.Key, y.Key) })
	}
	d = timeReps(op, "lsort.MergeCursors", "lsort", replayReps, nil, func() {
		cursors := make([]lsort.Cursor[comm.Entry[uint64]], len(runs))
		for i, r := range runs {
			cursors[i] = lsort.NewSliceCursor(r)
		}
		if _, err := lsort.MergeCursors(work, cursors, less); err != nil {
			b.fail("merge replay: %v", err)
		}
	})
	b.attempts++
	b.m.set("lsort.merge_ns_per_key", perKey(d))

	// comm: the wire codec both ways.
	var wire []byte
	d = timeReps(op, "comm.EncodeEntries", "comm", replayReps, nil,
		func() { wire = comm.EncodeEntries(wire[:0], ents, codec) })
	b.m.set("comm.encode_mb_s", rate(int64(len(wire)), d))
	pool := &alloc.SlabPool[comm.Entry[uint64]]{}
	d = timeReps(op, "comm.DecodeEntriesSlab", "comm", replayReps, nil, func() {
		out, _, err := comm.DecodeEntriesSlab(wire, n, codec, pool)
		b.attempts++
		if err != nil || len(out) != n || out[n/2].Key != share[n/2] {
			b.fail("decode replay: %v", err)
		}
		pool.Put(out)
	})
	b.m.set("comm.decode_mb_s", rate(int64(len(wire)), d))

	if err := b.replaySpillIO(op, ents, codec, int64(len(wire))); err != nil {
		return err
	}

	// keyio: the service's body codecs.
	var body []byte
	d = timeReps(op, "keyio.EncodeUint64s", "keyio", replayReps, nil, func() { body = keyio.EncodeUint64s(share) })
	b.m.set("keyio.encode_mb_s", rate(int64(len(body)), d))
	dst := make([]uint64, 0, 4096)
	d = timeReps(op, "keyio.StreamDecoder", "keyio", replayReps, nil, func() {
		dec := keyio.NewStreamDecoder(bytes.NewReader(body), keyio.ScanUint64s, 0)
		got := 0
		for {
			var err error
			dst, err = dec.Next(dst[:0])
			got += len(dst)
			if err != nil {
				b.attempts++
				if !errors.Is(err, io.EOF) || got != n {
					b.fail("stream decode replay: %v after %d of %d keys", err, got, n)
				}
				return
			}
		}
	})
	b.m.set("keyio.decode_mb_s", rate(int64(len(body)), d))

	// transport: a p-way all-to-all of 256KB messages on both networks.
	for _, kind := range []string{transport.KindChan, transport.KindTCP} {
		mbs, err := b.allToAll(op, kind, ents, codec)
		if err != nil {
			return err
		}
		b.m.set("transport."+kind+"_mb_s", mbs)
	}

	// datamgr: exchange assembly of p sources' chunks into one buffer.
	mgr := &datamgr.Manager{}
	chunk := mgr.ChunkLen(comm.EntriesWireBytes(ents[:1], codec))
	src := splitEven(ents, procs)
	perSrc := make([]int, procs)
	for i, s := range src {
		perSrc[i] = len(s)
	}
	d = timeReps(op, "datamgr.Assembly", "datamgr", replayReps, nil, func() {
		a := datamgr.NewAssembly[uint64](mgr, perSrc, int(entryBytes))
		var wg sync.WaitGroup
		for i, s := range src {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lo := 0; lo < len(s); lo += chunk {
					if err := a.Write(i, s[lo:min(lo+chunk, len(s))]); err != nil {
						b.fail("assembly replay: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		<-a.Done()
		a.Release()
	})
	b.m.set("datamgr.assembly_mb_s", rate(int64(n)*entryBytes, d))
	return nil
}

// replaySpillIO writes the share as a spill run with the Writer and reads
// it back with a RunReader; rates are in the entries' encoded bytes
// (rawBytes), before the run format's block compression.
func (b *bench) replaySpillIO(op ref, ents []comm.Entry[uint64], codec comm.Codec[uint64], rawBytes int64) error {
	path := filepath.Join(b.dir, "replay.run")
	defer os.Remove(path)
	var werr error
	d := timeReps(op, "spill.Writer", "spill", replayReps, nil, func() {
		w, err := spill.NewWriter(path, codec, spill.DefaultBlockBytes)
		if err != nil {
			werr = err
			return
		}
		for lo := 0; lo < len(ents); lo += 4096 {
			if err := w.Append(ents[lo:min(lo+4096, len(ents))]); err != nil {
				w.Abort()
				werr = err
				return
			}
		}
		werr = w.Finish()
	})
	if werr != nil {
		return fmt.Errorf("spill write replay: %w", werr)
	}
	b.m.set("spill.write_mb_s", rate(rawBytes, d))
	d = timeReps(op, "spill.RunReader", "spill", replayReps, nil, func() {
		r, err := spill.NewRunReader(path, codec, spill.ReaderOpts[uint64]{})
		b.attempts++
		if err != nil {
			b.fail("spill read replay: %v", err)
			return
		}
		defer r.Close()
		got := 0
		for {
			batch, err := r.Next()
			if err != nil {
				b.fail("spill read replay: %v", err)
				return
			}
			if len(batch) == 0 {
				break
			}
			got += len(batch)
		}
		if got != len(ents) {
			b.fail("spill read replay: %d of %d entries", got, len(ents))
		}
	})
	b.m.set("spill.read_mb_s", rate(rawBytes, d))
	return nil
}

// allToAll sends, from every endpoint to every other, eight messages of
// 256KB of wire bytes each, and returns the aggregate MB/s delivered.
func (b *bench) allToAll(op ref, kind string, ents []comm.Entry[uint64], codec comm.Codec[uint64]) (float64, error) {
	const rounds = 8
	net, err := transport.New[uint64](kind, procs, codec)
	if err != nil {
		return 0, fmt.Errorf("transport replay: %w", err)
	}
	// A failed send closes the network, so receivers waiting for its
	// messages return instead of blocking forever.
	closeNet := sync.OnceFunc(func() { net.Close() })
	defer closeNet()
	per := (&datamgr.Manager{}).ChunkLen(comm.EntriesWireBytes(ents[:1], codec))
	msg := ents[:min(per, len(ents))]
	total := int64(procs*(procs-1)*rounds) * int64(comm.EntriesWireBytes(msg, codec))
	d := timeReps(op, "transport.all-to-all("+kind+")", "transport", 3, nil, func() {
		var wg sync.WaitGroup
		for i := 0; i < procs; i++ {
			ep := net.Endpoint(i)
			wg.Add(2)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for dst := 0; dst < procs; dst++ {
						if dst == i {
							continue
						}
						if err := ep.Send(dst, comm.Message[uint64]{Kind: comm.KData, SortID: 1, Entries: msg}); err != nil {
							b.fail("%s send: %v", kind, err)
							closeNet()
							return
						}
					}
				}
			}()
			go func() {
				defer wg.Done()
				for got := 0; got < (procs-1)*rounds; got++ {
					m, ok := ep.Recv()
					if !ok {
						b.fail("%s recv: network closed after %d messages", kind, got)
						return
					}
					if len(m.Entries) != len(msg) {
						b.fail("%s recv: %d entries, want %d", kind, len(m.Entries), len(msg))
					}
					if m.Release != nil {
						m.Release()
					}
				}
			}()
		}
		wg.Wait()
	})
	b.attempts++
	return rate(total, d), nil
}

// replaySpill sorts the share on a budgeted cluster and through the
// spooled path, for the spill counters of workloads that do not spill.
func (b *bench) replaySpill(share []uint64) error {
	op := b.tr.op("replay:spill")
	defer op.end()
	want := sortedCopy(share)
	dir := filepath.Join(b.dir, "replay-spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	budget := budgetFor(len(share))
	c, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: procs, WorkersPerProc: workers, MemoryBudget: budget, SpillDir: dir})
	if err != nil {
		return err
	}
	defer c.Close()
	parts := splitEven(share, procs)
	var reps []core.Report
	var times []time.Duration
	for i := 0; i < 3; i++ {
		res, d, op, err := tracedSort(b, true, "core.Engine.Sort(budget)", func() (*core.Result[uint64], error) { return c.Sort(parts) })
		op.end()
		b.attempts++
		if err == nil {
			err = checkKeys(res.Parts, want)
		}
		if err != nil {
			b.fail("budgeted replay: %v", err)
			continue
		}
		reps = append(reps, res.Report.Snapshot())
		times = append(times, d)
	}
	input := filepath.Join(dir, "input.run")
	if err := writeSpooled(input, share); err != nil {
		return err
	}
	d, peak, err := spooledSort(c, op, input, want)
	b.attempts++
	if err != nil {
		b.fail("spooled replay: %v", err)
	}
	b.spillMetrics(reps, budget, mb(peak))
	b.m.set("spill.budget_sort_s_p50", median(seconds(times)))
	b.m.set("spill.spooled_s_p50", d.Seconds())
	return nil
}

// uint64s is the sort.Interface wrapper idiom of SNIPPETS.md.
type uint64s []uint64

func (s uint64s) Len() int           { return len(s) }
func (s uint64s) Less(i, j int) bool { return s[i] < s[j] }
func (s uint64s) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// refs records the speed-of-light and paper reference rows on the
// workload's input. pgxd is the workload's median PGX.D sort time on the
// resident-uniform input, or 0 to measure it here.
func (b *bench) refs(keys []uint64, pgxd float64) error {
	op := b.tr.op("replay:refs")
	defer op.end()
	n := len(keys)
	work := make([]uint64, n)
	d := timeReps(op, "ref.slices.Sort", "ref", 3, func() { copy(work, keys) }, func() { slices.Sort(work) })
	b.m.set("ref.slices_sort_ns_per_key", float64(d.Nanoseconds())/float64(n))
	d = timeReps(op, "ref.sort.Sort", "ref", 2, func() { copy(work, keys) }, func() { sort.Sort(uint64s(work)) })
	b.m.set("ref.sort_interface_ns_per_key", float64(d.Nanoseconds())/float64(n))
	d = timeReps(op, "ref.memmove", "ref", 9, nil, func() { copy(work, keys) })
	b.m.set("ref.memmove_gb_s", float64(8*n)/d.Seconds()/1e9)

	// The paper's headline: Spark's sortByKey against PGX.D on the
	// resident-uniform input, with the same processor and core counts.
	uniform := genKeys(dist.Uniform, b.seed, 1, residentN)
	parts := splitEven(uniform, procs)
	if pgxd == 0 {
		c, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: procs, WorkersPerProc: workers})
		if err != nil {
			return err
		}
		var res *core.Result[uint64]
		pgxd = timeReps(op, "core.Engine.Sort(uniform)", "core", 3, nil, func() { res, err = c.Sort(parts) }).Seconds()
		c.Close()
		b.attempts++
		if err == nil {
			err = checkKeys(res.Parts, sortedCopy(uniform))
		}
		if err != nil {
			b.fail("pgxd reference sort: %v", err)
		}
	}
	sc := spark.NewContext(spark.Config{Partitions: procs, TotalCores: procs * workers, Seed: b.seed})
	defer sc.Close()
	rdd, err := spark.FromParts(sc, parts)
	if err != nil {
		return err
	}
	var out *spark.RDD[uint64]
	d = timeReps(op, "spark.SortByKey", "ref", 2, nil, func() { out, _ = spark.SortByKey(rdd, comm.U64Codec{}) })
	b.attempts++
	if err := spark.Verify(rdd, out); err != nil {
		b.fail("spark reference sort: %v", err)
	}
	b.m.set("ref.spark_over_pgxd", d.Seconds()/pgxd)
	return nil
}
