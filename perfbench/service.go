package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pgxsort"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/keyio"
	"pgxsort/internal/serve"
)

// Service workload shape.
const (
	clients     = 2         // closed-loop clients
	missKeys    = 1_000_000 // uint64 cache-miss and hot bodies
	strMissKeys = 200_000   // string cache-miss bodies
	// cacheBytes holds the two hot results plus every miss inserted
	// between two touches of a hot body, so the hot set is never evicted.
	cacheBytes = 128 << 20
	// shiftBits places each miss's per-job offset above the key domain,
	// so shifted keys keep their order and every body is distinct.
	shiftBits = 21
)

// daemon is one serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("daemon not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener, waits for Serve to return and drains the
// server.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.Transport.(*http.Transport).CloseIdleConnections()
	d.srv.Close()
}

// get fetches a GET endpoint's body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// counters sums /metrics samples by metric name (labels folded).
func (d *daemon) counters() (map[string]float64, error) {
	raw, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name, `reason="queue_full"`) {
				out["queue_full"], _ = strconv.ParseFloat(val, 64)
			}
			name = name[:i]
		}
		v, _ := strconv.ParseFloat(val, 64)
		out[name] += v
	}
	return out, nil
}

// jobInfo is the part of a /debug/jobs record the benchmark reads.
type jobInfo struct {
	ID        string  `json:"id"`
	ElapsedMS float64 `json:"elapsed_ms"`
	AdmitMS   float64 `json:"admit_wait_ms"`
	Stages    []struct {
		Stage   string  `json:"stage"`
		StartMS float64 `json:"start_ms"`
		EndMS   float64 `json:"end_ms"`
	} `json:"stages"`
}

// jobLog collects /debug/jobs records; the server keeps only its last
// 256 jobs, so the run polls it while clients are busy.
type jobLog struct {
	mu   sync.Mutex
	jobs map[string]jobInfo
}

func (l *jobLog) poll(d *daemon) error {
	raw, err := d.get("/debug/jobs")
	if err != nil {
		return err
	}
	var doc struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("decode /debug/jobs: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, j := range doc.Jobs {
		l.jobs[j.ID] = j
	}
	return nil
}

// job is one request a client sends and the answer it must get back.
type job struct {
	class   string // "hit", "miss" (uint64) or "str-miss"
	keyType string
	body    []byte
	want    []byte
	n       int
}

// jobDone is one finished request as the client saw it.
type jobDone struct {
	class   string
	lat     time.Duration
	status  int
	cache   string
	id      string
	n       int
	traced  bool
	call    ref       // the client call's span, to lay the server's account under
	end     time.Time // when the answer had arrived
	failure string
}

// mix builds each client's seeded request schedule in blocks of four
// jobs, shuffled per block: two repeats of the client's hot body (cache
// hits once warm), one distinct uint64 body and one distinct string body
// (cache misses). Shuffling keeps the two clients from locking into one
// phase, and bounds the misses inserted between two touches of a hot
// body, so cacheBytes keeps the hot set resident. The 2:1:1 split is an
// assumption, not taken from measured traffic: the repository holds no
// record of what real clients send.
type mix struct {
	seed    uint64
	hot     [][]uint64 // one hot body's keys per client
	hotBody [][]byte
	hotWant [][]byte
	bases   [][]uint64 // uint64 miss bodies, one per distribution
	sorted  [][]uint64
	strs    []string // string miss body without its per-job prefix
	strSort []string
}

func (m *mix) hotJob(client int) job {
	return job{class: "hit", keyType: "uint64", body: m.hotBody[client], want: m.hotWant[client], n: len(m.hot[client])}
}

// jobBufs holds one client's request and expected-answer bytes, reused
// from job to job so building a request allocates nothing.
type jobBufs struct{ body, want []byte }

func (m *mix) job(client, i int, bufs *jobBufs) job {
	uniq := uint64(client)<<32 | uint64(i)
	block := dist.NewRNG(m.seed ^ (uniq>>2)*0x9e3779b97f4a7c15)
	slots := []string{"hit", "hit", "miss", "str-miss"}
	for j := len(slots) - 1; j > 0; j-- {
		k := block.Uint64n(uint64(j + 1))
		slots[j], slots[k] = slots[k], slots[j]
	}
	switch slots[i%4] {
	case "hit":
		return m.hotJob(client)
	case "str-miss":
		prefix := fmt.Sprintf("m%07x", uniq%(1<<28)) // 8 bytes: one radix norm for every key
		bufs.body = encodePrefixed(bufs.body, prefix, m.strs)
		bufs.want = encodePrefixed(bufs.want, prefix, m.strSort)
		return job{class: "str-miss", keyType: "string", body: bufs.body, want: bufs.want, n: len(m.strs)}
	}
	k := (client + i/4) % len(m.bases) // every distribution in turn, so each run has the same mix
	shift := (uniq + 1) << shiftBits
	bufs.body = encodeShifted(bufs.body, m.bases[k], shift)
	bufs.want = encodeShifted(bufs.want, m.sorted[k], shift)
	return job{class: "miss", keyType: "uint64", body: bufs.body, want: bufs.want, n: len(m.bases[k])}
}

// encodeShifted writes the canonical uint64 encoding of every key plus
// shift into dst.
func encodeShifted(dst []byte, keys []uint64, shift uint64) []byte {
	dst = dst[:0]
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k+shift)
	}
	return dst
}

// encodePrefixed writes the canonical string encoding of prefix+s for
// every s into dst.
func encodePrefixed(dst []byte, prefix string, xs []string) []byte {
	dst = dst[:0]
	for _, s := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(prefix)+len(s)))
		dst = append(append(dst, prefix...), s...)
	}
	return dst
}

// checkEncoders proves the request encoders write exactly what keyio
// writes, so answers checked against them are checked against keyio
// encodings of the reference.
func (m *mix) checkEncoders() error {
	keys := m.sorted[0]
	shifted := make([]uint64, len(keys))
	for i, k := range keys {
		shifted[i] = k + 1<<shiftBits
	}
	if !bytes.Equal(encodeShifted(nil, keys, 1<<shiftBits), keyio.EncodeUint64s(shifted)) {
		return fmt.Errorf("uint64 request encoder disagrees with keyio")
	}
	strs := make([]string, len(m.strSort))
	for i, s := range m.strSort {
		strs[i] = "m0000001" + s
	}
	if !bytes.Equal(encodePrefixed(nil, "m0000001", m.strSort), keyio.EncodeStrings(strs)) {
		return fmt.Errorf("string request encoder disagrees with keyio")
	}
	return nil
}

func (m *mix) addHot(keys []uint64) {
	m.hot = append(m.hot, keys)
	m.hotBody = append(m.hotBody, keyio.EncodeUint64s(keys))
	m.hotWant = append(m.hotWant, keyio.EncodeUint64s(sortedCopy(keys)))
}

// send posts one octet-stream sort and checks the answer byte for byte.
func (d *daemon) send(client int, j job, buf *bytes.Buffer) jobDone {
	url := fmt.Sprintf("%s/v1/sort?key_type=%s&tenant=c%d", d.base, j.keyType, client)
	done := jobDone{class: j.class, n: j.n}
	t0 := time.Now()
	resp, err := d.client.Post(url, "application/octet-stream", bytes.NewReader(j.body))
	if err != nil {
		done.failure = err.Error()
		return done
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done.lat = time.Since(t0)
	done.status = resp.StatusCode
	done.cache = resp.Header.Get("X-Pgxsortd-Cache")
	done.id = resp.Header.Get("X-Pgxsortd-Job")
	switch {
	case err != nil:
		done.failure = err.Error()
	case resp.StatusCode != http.StatusOK:
		done.failure = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(buf.String()))
	default:
		if err := checkBytes(buf.Bytes(), j.want); err != nil {
			done.failure = err.Error()
		}
	}
	return done
}

// serviceRun is what one closed-loop window measured.
type serviceRun struct {
	done          []jobDone
	window        time.Duration
	jobs          map[string]jobInfo
	counters      map[string]float64 // /metrics deltas over the window
	before, after allocStats         // runtime counters around the window
}

// drive runs the clients' schedules in a closed loop: each client sends
// its next job only after the previous answer arrived and was checked.
// The hot bodies are sent once first, so they are only ever hits; then
// the clients run warm unmeasured, long enough for the engine pools, the
// heap and the result cache to fill, and then window measured.
func (b *bench) drive(d *daemon, m *mix, warm, window time.Duration) (*serviceRun, error) {
	if err := m.checkEncoders(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for c := range m.hot {
		if r := d.send(c, m.hotJob(c), &buf); r.failure != "" {
			return nil, fmt.Errorf("warming hot body %d: %s", c, r.failure)
		}
	}
	runtime.GC()                 // start from a collected heap, as the batch workloads' ops do
	next := make([]int, clients) // each client's next job index
	warmed, _ := b.closedLoop(d, m, next, warm, false)
	for _, r := range warmed {
		b.attempts++
		if r.failure != "" {
			b.fail("warm-up %s job %s: %s", r.class, r.id, r.failure)
		}
	}

	before, err := d.counters()
	if err != nil {
		return nil, err
	}
	log := &jobLog{jobs: map[string]jobInfo{}}
	stop := make(chan struct{})
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				log.poll(d)
			}
		}
	}()
	allocBefore := readAllocStats()
	done, elapsed := b.closedLoop(d, m, next, window, b.traced)
	allocAfter := readAllocStats()
	close(stop)
	polled.Wait()
	if err := log.poll(d); err != nil {
		return nil, err
	}
	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	for _, r := range done {
		if info, ok := log.jobs[r.id]; ok {
			layJob(r.call, r.end, info)
		}
	}
	return &serviceRun{done: done, window: elapsed, jobs: log.jobs, counters: delta, before: allocBefore, after: allocAfter}, nil
}

// closedLoop runs every client's schedule from next[c] for window and
// returns the finished requests and the time the loop took. In a traced
// run, alternate blocks of four jobs are traced, so every class is.
func (b *bench) closedLoop(d *daemon, m *mix, next []int, window time.Duration, traced bool) ([]jobDone, time.Duration) {
	var mu sync.Mutex
	var done []jobDone
	start := time.Now()
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var bufs jobBufs
			for ; time.Since(start) < window; next[c]++ {
				i := next[c]
				j := m.job(c, i, &bufs)
				op := ref{}
				withTrace := traced && (i/4)%2 == 1
				if withTrace {
					op = b.tr.op("op:" + b.workload + "/" + j.class)
				}
				call := op.child("serve POST /v1/sort", "serve")
				r := d.send(c, j, &buf)
				r.end = time.Now()
				if j.class == "hit" && r.failure == "" && r.cache != "hit" {
					// The hot bodies were answered once before the loop,
					// so a repeat the cache did not serve is an eviction.
					r.failure = fmt.Sprintf("hot body answered with X-Pgxsortd-Cache %q, want \"hit\"", r.cache)
				}
				call.endAt(r.end)
				op.end()
				r.traced, r.call = withTrace, call
				mu.Lock()
				done = append(done, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, time.Since(start)
}

// layJob places the server's own account of a job under the client's
// call span: the handler interval ending when the answer arrived, and
// the scheduler stages at their offsets from the handler's start. Jobs
// missing from /debug/jobs keep only the client span.
func layJob(call ref, end time.Time, info jobInfo) {
	if call.tr == nil {
		return
	}
	start := end.Add(-time.Duration(info.ElapsedMS * float64(time.Millisecond)))
	call.lay("serve.handler", "serve", start, end.Sub(start))
	for _, st := range info.Stages {
		call.lay("sched."+st.Stage, "core", start.Add(time.Duration(st.StartMS*float64(time.Millisecond))),
			time.Duration((st.EndMS-st.StartMS)*float64(time.Millisecond)))
	}
}

// account folds a window's requests into the run's counts and the
// serve.* metrics, and returns the uint64 misses' untraced and traced
// latencies in ms and the keys answered per second.
func (b *bench) account(run *serviceRun) (miss, missTraced []float64, keysPerS float64) {
	var hit, strMiss, handler, outside, admit, cover []float64
	keys := 0
	for _, r := range run.done {
		b.attempts++
		if r.failure != "" {
			b.fail("%s job %s: %s", r.class, r.id, r.failure)
			continue
		}
		keys += r.n
		ms := float64(r.lat) / float64(time.Millisecond)
		switch r.class {
		case "hit":
			hit = append(hit, ms)
		case "str-miss":
			strMiss = append(strMiss, ms)
		case "miss":
			if r.traced {
				missTraced = append(missTraced, ms)
			} else {
				miss = append(miss, ms)
			}
			info, ok := run.jobs[r.id]
			if !ok {
				continue
			}
			handler = append(handler, info.ElapsedMS)
			outside = append(outside, ms-info.ElapsedMS)
			admit = append(admit, info.AdmitMS)
			covered := info.AdmitMS
			for _, st := range info.Stages {
				covered += st.EndMS - st.StartMS
			}
			cover = append(cover, covered/info.ElapsedMS)
		}
	}
	// The serve metrics pool traced and untraced jobs: the spans are
	// recorded outside the requests, and the tail needs every sample.
	allMiss := append(slices.Clone(miss), missTraced...)
	fmt.Printf("service: %d uint64 misses (%d of them traced), %d string misses, %d hits in %.1fs\n",
		len(allMiss), len(missTraced), len(strMiss), len(hit), run.window.Seconds())
	for _, c := range []struct {
		name string
		ms   []float64
	}{{"uint64 miss", allMiss}, {"string miss", strMiss}, {"hit", hit}} {
		fmt.Printf("  %-11s ms p10 %.1f p50 %.1f p90 %.1f (n=%d)\n", c.name,
			quantile(c.ms, 0.1), median(c.ms), quantile(c.ms, 0.9), len(c.ms))
	}
	b.m.set("serve.miss_ms_p50", median(allMiss))
	b.m.set("serve.miss_ms_p90", quantile(allMiss, 0.9))
	b.m.set("serve.hit_ms_p50", median(hit))
	b.m.set("serve.hit_ms_p90", quantile(hit, 0.9))
	b.m.set("serve.str_miss_ms_p50", median(strMiss))
	b.m.set("serve.jobs_per_s", float64(len(run.done))/run.window.Seconds())
	c := run.counters
	b.m.set("serve.cache_hit_ratio", c["pgxsortd_cache_hits_total"]/(c["pgxsortd_cache_hits_total"]+c["pgxsortd_cache_misses_total"]))
	engineJobs := max(float64(len(run.done)-len(hit)), 1)
	b.m.set("serve.gate_wait_s", c["pgxsortd_sched_gate_wait_seconds_total"]/engineJobs)
	b.m.set("serve.admit_wait_ms_p50", median(admit))
	b.m.set("serve.handler_ms_p50", median(handler))
	b.m.set("serve.outside_handler_ms_p50", median(outside))
	b.m.set("serve.span_cover", median(cover))
	b.m.set("serve.http_429", c["queue_full"])
	errs := 0
	for _, r := range run.done {
		if r.failure != "" && r.status != http.StatusTooManyRequests {
			errs++
		}
	}
	b.m.set("serve.errors", float64(errs))
	return miss, missTraced, float64(keys) / run.window.Seconds()
}

// newMix generates the service inputs from the seed: two hot bodies,
// one uint64 miss body per distribution of the paper and a string miss
// body.
func newMix(seed uint64, n, strN int) *mix {
	m := &mix{seed: seed}
	for c := 0; c < clients; c++ {
		keys := genKeys(dist.Kinds[c], seed, 10+uint64(c), n)
		m.addHot(keys)
	}
	for i, k := range dist.Kinds {
		keys := genKeys(k, seed, 20+uint64(i), n)
		m.bases = append(m.bases, keys)
		m.sorted = append(m.sorted, sortedCopy(keys))
	}
	m.strs = dist.Gen{Kind: dist.Uniform, Seed: seed*1_000_003 + 30}.Strings(strN, "")
	m.strSort = sortedCopy(m.strs)
	return m
}

func serviceConfig(keyTypes ...dist.KeyType) serve.Config {
	return serve.Config{Procs: procs, Workers: workers, KeyTypes: keyTypes, CacheBytes: cacheBytes}
}

func runServiceMix(b *bench) error {
	m := newMix(b.seed, missKeys, strMissKeys)
	cfg := serviceConfig(dist.KeyUint64, dist.KeyString)
	d, err := timeSetup(b, func() (*daemon, error) { return startDaemon(cfg) }, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()
	run, err := b.drive(d, m, 4*time.Second, b.window)
	if err != nil {
		return err
	}
	b.setRuntimeMetrics(run.before, run.after, len(run.done))
	miss, missTraced, keysPerS := b.account(run)
	b.m.set("sort_s_p50", median(miss)/1000)
	b.m.set("keys_per_s", keysPerS)
	if !b.traced {
		return nil
	}
	// The engine's own reports are not on the wire; sort the first hot
	// body on a cluster of the daemon's shape for the core metrics.
	b.m.set("trace.sort_s_p50", median(missTraced)/1000)
	b.m.set("trace.overhead_s", (median(missTraced)-median(miss))/1000)
	if err := b.replayCore(m.hot[0]); err != nil {
		return err
	}
	share := m.hot[0][:len(m.hot[0])/procs]
	if err := b.replayLayers(share, comm.U64Codec{}, nil); err != nil {
		return err
	}
	if err := b.replaySpill(share); err != nil {
		return err
	}
	return b.refs(m.hot[0], 0)
}

// replayCore sorts keys a few times on a cluster of the service's shape
// and records the core metrics from the reports.
func (b *bench) replayCore(keys []uint64) error {
	want := sortedCopy(keys)
	c, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: procs, WorkersPerProc: workers})
	if err != nil {
		return err
	}
	defer c.Close()
	parts := splitEven(keys, procs)
	var reps []core.Report
	for i := 0; i < 5; i++ {
		res, _, op, err := tracedSort(b, true, "core.Engine.Sort", func() (*core.Result[uint64], error) { return c.Sort(parts) })
		op.end()
		b.attempts++
		if err == nil {
			err = checkKeys(res.Parts, want)
		}
		if err != nil {
			b.fail("core replay: %v", err)
			continue
		}
		reps = append(reps, res.Report.Snapshot())
	}
	b.coreMetrics(reps)
	return nil
}

// replayServe runs a short closed-loop window of the service-mix
// schedule, with bodies of n uint64 and strN string keys drawn from the
// run's seed. It gives the serve metrics of workloads whose own load does
// not reach serve, because a traced run reports every per-layer metric.
func (b *bench) replayServe(n, strN int) error {
	m := newMix(b.seed, n, strN)
	d, err := startDaemon(serviceConfig(dist.KeyUint64, dist.KeyString))
	if err != nil {
		return err
	}
	defer d.close()
	run, err := b.drive(d, m, time.Second, 3*time.Second)
	if err != nil {
		return err
	}
	b.account(run)
	return nil
}
