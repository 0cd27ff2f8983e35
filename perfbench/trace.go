package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgxsort/internal/core"
)

// span is one traced interval. Timed spans bracket a call from the
// benchmark into a layer; laid spans (Laid true) are placed under a call
// from the measurements the layer returned (Report steps, scheduler
// offsets, /debug/jobs stages) rather than timed directly.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for an op's root span
	Op     uint64 `json:"op"`     // shared by every span of one op
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // offset from the run's epoch
	End    int64  `json:"end_ns"`
	Laid   bool   `json:"laid,omitempty"`
}

// tracer keeps spans in memory and writes them once, when the run ends.
// A disabled tracer (untraced runs) records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// ref identifies an open span; the zero ref means "not traced".
type ref struct {
	tr     *tracer
	op     uint64
	id     uint64
	parent uint64
	name   string
	layer  string
	start  time.Time
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// op opens the root span of a new op; untraced runs get the zero ref.
func (t *tracer) op(name string) ref {
	if !t.on {
		return ref{}
	}
	id := t.newID()
	return ref{tr: t, op: id, id: id, name: name, layer: "bench", start: time.Now()}
}

// child opens a span under r in the same op.
func (r ref) child(name, layer string) ref {
	if r.tr == nil {
		return ref{}
	}
	return ref{tr: r.tr, op: r.op, id: r.tr.newID(), parent: r.id, name: name, layer: layer, start: time.Now()}
}

// end closes the span at the current time.
func (r ref) end() { r.endAt(time.Now()) }

func (r ref) endAt(end time.Time) {
	if r.tr == nil {
		return
	}
	r.tr.add(span{ID: r.id, Parent: r.parent, Op: r.op, Name: r.name, Layer: r.layer,
		Start: r.tr.off(r.start), End: r.tr.off(end)})
}

// lay records a span under parent from a measured start and duration.
func (r ref) lay(name, layer string, start time.Time, d time.Duration) {
	if r.tr == nil {
		return
	}
	r.tr.add(span{ID: r.tr.newID(), Parent: r.id, Op: r.op, Name: name, Layer: layer,
		Start: r.tr.off(start), End: r.tr.off(start.Add(d)), Laid: true})
}

func (t *tracer) off(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// stepLayer names the layer that does each pipeline step's work.
var stepLayer = [core.NumSteps]string{
	core.StepLocalSort:  "lsort",
	core.StepSampling:   "sample",
	core.StepSplitters:  "sample",
	core.StepPartition:  "sample",
	core.StepExchange:   "transport",
	core.StepFinalMerge: "lsort",
}

// layReport places a sort's critical-path step durations end to end
// under the call span, starting at the call's start, and the scheduler's
// stage spans at their offsets from the same start when the sort went
// through the scheduler.
func (call ref) layReport(rep *core.Report) {
	if call.tr == nil {
		return
	}
	at := call.start
	for s := core.Step(0); s < core.NumSteps; s++ {
		call.lay("step."+s.String(), stepLayer[s], at, rep.Steps[s])
		at = at.Add(rep.Steps[s])
	}
	if !rep.Sched.Pipelined {
		return
	}
	call.lay("sched.admit-wait", "core", call.start, rep.Sched.AdmitWait)
	for st := core.SchedStage(0); st < core.NumSchedStages; st++ {
		call.lay("sched."+st.String(), "core", call.start.Add(rep.Sched.StageStart[st]),
			rep.Sched.StageEnd[st]-rep.Sched.StageStart[st])
	}
}

// write stores every span as one JSON document.
func (t *tracer) write(path, workload string, env runEnv) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Env      runEnv `json:"env"`
		Spans    []span `json:"spans"`
	}{workload, env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
