package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics a run must print, and their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its measured value; units come from
// BENCHMARK.json when the run's metrics are picked.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// pick returns the values of want, in want's units, and the names of
// any metric the run did not measure (or measured as NaN).
func (m metrics) pick(want []metricSpec) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(want))
	var missing []string
	for _, w := range want {
		v, ok := m[w.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, w.Name)
			continue
		}
		out[w.Name] = metricValue{Value: v, Unit: w.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// rate returns MB/s for bytes moved in d.
func rate(bytes int64, d time.Duration) float64 { return mb(bytes) / d.Seconds() }
