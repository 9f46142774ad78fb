// Package trace models network bandwidth traces: the time series of link
// capacity that drives both the ABR and CC simulators.
//
// It provides the synthetic trace generators described in §A.2 of the Genet
// paper, calibrated synthetic stand-ins for the four recorded trace sets of
// Table 2 (FCC, Norway, Cellular, Ethernet), feature extraction used to
// bucket traces into environment configurations, and CSV/JSON serialization.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Trace is a piecewise-constant bandwidth time series. Timestamps are in
// seconds from the start of the trace and strictly increasing; Bandwidth[i]
// (Mbps) holds from Timestamps[i] until Timestamps[i+1] (or the end of the
// trace for the last sample).
type Trace struct {
	Name       string    `json:"name,omitempty"`
	Timestamps []float64 `json:"timestamps"`
	Bandwidth  []float64 `json:"bandwidth"`
}

// Validate reports whether the trace is well formed: non-empty, equal-length
// series, finite and strictly increasing timestamps, and finite,
// non-negative bandwidth.
func (t *Trace) Validate() error {
	if len(t.Timestamps) == 0 {
		return errors.New("trace: empty")
	}
	if len(t.Timestamps) != len(t.Bandwidth) {
		return fmt.Errorf("trace: %d timestamps vs %d bandwidth samples", len(t.Timestamps), len(t.Bandwidth))
	}
	for i := range t.Timestamps {
		if ts := t.Timestamps[i]; math.IsNaN(ts) || math.IsInf(ts, 0) {
			return fmt.Errorf("trace: non-finite timestamp %f at index %d", ts, i)
		}
		if bw := t.Bandwidth[i]; math.IsNaN(bw) || math.IsInf(bw, 0) {
			return fmt.Errorf("trace: non-finite bandwidth %f at index %d", bw, i)
		}
		if t.Bandwidth[i] < 0 {
			return fmt.Errorf("trace: negative bandwidth %f at index %d", t.Bandwidth[i], i)
		}
		if i > 0 && t.Timestamps[i] <= t.Timestamps[i-1] {
			return fmt.Errorf("trace: non-increasing timestamp at index %d", i)
		}
	}
	return nil
}

// Duration returns the time span covered by the trace in seconds.
func (t *Trace) Duration() float64 {
	if len(t.Timestamps) == 0 {
		return 0
	}
	return t.Timestamps[len(t.Timestamps)-1] - t.Timestamps[0]
}

// At returns the bandwidth in effect at time ts (seconds). Times before the
// first sample return the first bandwidth; times at or beyond the last sample
// return the last. The trace is treated as piecewise constant.
func (t *Trace) At(ts float64) float64 {
	n := len(t.Timestamps)
	if n == 0 {
		return 0
	}
	if ts <= t.Timestamps[0] {
		return t.Bandwidth[0]
	}
	if ts >= t.Timestamps[n-1] {
		return t.Bandwidth[n-1]
	}
	// Binary search for the last timestamp <= ts.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.Timestamps[mid] <= ts {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return t.Bandwidth[lo]
}

// AtHint is At with a caller-held cursor: pass the hint returned by the
// previous call. When successive queries advance slowly through the trace —
// the replay pattern of the simulators' integration loops — the lookup walks
// the cursor forward a step instead of binary-searching every call. Results
// are identical to At for any hint value.
func (t *Trace) AtHint(ts float64, hint int) (bw float64, newHint int) {
	n := len(t.Timestamps)
	if n == 0 {
		return 0, 0
	}
	if ts <= t.Timestamps[0] {
		return t.Bandwidth[0], 0
	}
	if ts >= t.Timestamps[n-1] {
		return t.Bandwidth[n-1], n - 1
	}
	if hint < 0 || hint >= n || t.Timestamps[hint] > ts {
		hint = 0
	}
	for steps := 0; hint+1 < n && t.Timestamps[hint+1] <= ts; steps++ {
		if steps == 8 {
			// Far jump: fall back to binary search over the remainder.
			lo, hi := hint, n-1
			for lo < hi {
				mid := (lo + hi + 1) / 2
				if t.Timestamps[mid] <= ts {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			return t.Bandwidth[lo], lo
		}
		hint++
	}
	return t.Bandwidth[hint], hint
}

// AtWrapped is like At but wraps ts modulo the trace duration, so a short
// trace can drive an arbitrarily long simulation (the replay behaviour of
// the Pensieve and Aurora simulators).
func (t *Trace) AtWrapped(ts float64) float64 {
	bw, _ := t.AtWrappedHint(ts, 0)
	return bw
}

// AtWrappedHint is AtWrapped with a caller-held cursor (see AtHint).
func (t *Trace) AtWrappedHint(ts float64, hint int) (bw float64, newHint int) {
	d := t.Duration()
	if d <= 0 {
		return t.At(ts), hint
	}
	off := ts - t.Timestamps[0]
	// math.Mod returns off unchanged on [0, d), where a simulator almost
	// always is; skip its cost there.
	if !(0 <= off && off < d) {
		off = math.Mod(off, d)
		if off < 0 {
			off += d
		}
	}
	return t.AtHint(t.Timestamps[0]+off, hint)
}

// Mean returns the time-weighted mean bandwidth of the trace in Mbps.
func (t *Trace) Mean() float64 {
	n := len(t.Timestamps)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return t.Bandwidth[0]
	}
	var area float64
	for i := 0; i < n-1; i++ {
		area += t.Bandwidth[i] * (t.Timestamps[i+1] - t.Timestamps[i])
	}
	return area / t.Duration()
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	return &Trace{
		Name:       t.Name,
		Timestamps: append([]float64(nil), t.Timestamps...),
		Bandwidth:  append([]float64(nil), t.Bandwidth...),
	}
}

// Scale returns a copy of the trace with all bandwidth values multiplied by
// factor.
func (t *Trace) Scale(factor float64) *Trace {
	c := t.Clone()
	for i := range c.Bandwidth {
		c.Bandwidth[i] *= factor
	}
	return c
}

// Features summarizes a trace along the bandwidth-related environment
// parameters Genet uses to bucket recorded traces into configurations
// (§4.2): bandwidth range, variance, and how often the bandwidth changes.
type Features struct {
	MinBW          float64 // Mbps
	MaxBW          float64 // Mbps
	MeanBW         float64 // Mbps, time weighted
	VarBW          float64 // Mbps^2, sample variance
	ChangeInterval float64 // mean seconds between bandwidth changes
	Duration       float64 // seconds
}

// ExtractFeatures computes the bandwidth features of a trace. A trace with a
// single bandwidth change (or none) reports its full duration as the change
// interval.
func ExtractFeatures(t *Trace) Features {
	f := Features{Duration: t.Duration(), MeanBW: t.Mean()}
	if len(t.Bandwidth) == 0 {
		return f
	}
	f.MinBW = t.Bandwidth[0]
	f.MaxBW = t.Bandwidth[0]
	var sum, sumSq float64
	for _, b := range t.Bandwidth {
		f.MinBW = math.Min(f.MinBW, b)
		f.MaxBW = math.Max(f.MaxBW, b)
		sum += b
		sumSq += b * b
	}
	n := float64(len(t.Bandwidth))
	mean := sum / n
	f.VarBW = sumSq/n - mean*mean
	if f.VarBW < 0 {
		f.VarBW = 0
	}
	changes := 0
	lastChange := t.Timestamps[0]
	var gaps []float64
	for i := 1; i < len(t.Bandwidth); i++ {
		if t.Bandwidth[i] != t.Bandwidth[i-1] {
			changes++
			gaps = append(gaps, t.Timestamps[i]-lastChange)
			lastChange = t.Timestamps[i]
		}
	}
	if changes == 0 {
		f.ChangeInterval = f.Duration
	} else {
		var total float64
		for _, g := range gaps {
			total += g
		}
		f.ChangeInterval = total / float64(changes)
	}
	return f
}

// Set is a named collection of traces, e.g. a synthetic stand-in for the
// paper's FCC or Cellular trace sets.
type Set struct {
	Name   string   `json:"name"`
	Traces []*Trace `json:"traces"`
}

// TotalDuration returns the summed duration of all traces in seconds.
func (s *Set) TotalDuration() float64 {
	var d float64
	for _, t := range s.Traces {
		d += t.Duration()
	}
	return d
}

// Len returns the number of traces in the set.
func (s *Set) Len() int { return len(s.Traces) }

// Split partitions the set into train and test subsets with the given train
// fraction, shuffled with rng. Both subsets share the underlying traces.
func (s *Set) Split(trainFrac float64, rng *rand.Rand) (train, test *Set) {
	idx := rng.Perm(len(s.Traces))
	nTrain := int(math.Round(trainFrac * float64(len(s.Traces))))
	if nTrain > len(s.Traces) {
		nTrain = len(s.Traces)
	}
	train = &Set{Name: s.Name + "-train"}
	test = &Set{Name: s.Name + "-test"}
	for i, j := range idx {
		if i < nTrain {
			train.Traces = append(train.Traces, s.Traces[j])
		} else {
			test.Traces = append(test.Traces, s.Traces[j])
		}
	}
	return train, test
}

// Sample returns a uniformly random trace from the set.
func (s *Set) Sample(rng *rand.Rand) *Trace {
	if len(s.Traces) == 0 {
		return nil
	}
	return s.Traces[rng.Intn(len(s.Traces))]
}

// Filter returns the subset of traces whose features satisfy pred.
func (s *Set) Filter(pred func(Features) bool) *Set {
	out := &Set{Name: s.Name + "-filtered"}
	for _, t := range s.Traces {
		if pred(ExtractFeatures(t)) {
			out.Traces = append(out.Traces, t)
		}
	}
	return out
}

// WriteCSV writes the trace in the two-column "[timestamp, throughput]"
// format used by the Pensieve simulator (§A.2).
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for i := range t.Timestamps {
		rec := []string{
			strconv.FormatFloat(t.Timestamps[i], 'f', -1, 64),
			strconv.FormatFloat(t.Bandwidth[i], 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a two-column timestamp/throughput CSV into a trace.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	t := &Trace{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read csv: %w", err)
		}
		ts, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q: %w", rec[0], err)
		}
		bw, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad bandwidth %q: %w", rec[1], err)
		}
		t.Timestamps = append(t.Timestamps, ts)
		t.Bandwidth = append(t.Bandwidth, bw)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteJSON serializes the set as JSON.
func (s *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses a set from JSON and validates each trace.
func ReadJSON(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: decode set: %w", err)
	}
	for i, t := range s.Traces {
		if t == nil {
			return nil, fmt.Errorf("trace: set %q trace %d is null", s.Name, i)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trace: set %q trace %d: %w", s.Name, i, err)
		}
	}
	return &s, nil
}
