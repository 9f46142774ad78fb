package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"github.com/genet-go/genet/internal/ckpt"
)

// TraceEvent is one Chrome trace_event record — the JSON schema Perfetto
// and chrome://tracing load. Durations use ph "X" (complete events),
// markers use ph "i" (instant events); timestamps and durations are
// microseconds since the recorder epoch.
type TraceEvent struct {
	Name  string             `json:"name"`
	Phase string             `json:"ph"`
	TS    float64            `json:"ts"`
	Dur   float64            `json:"dur,omitempty"`
	PID   int                `json:"pid"`
	TID   int                `json:"tid"`
	Scope string             `json:"s,omitempty"` // "t" (thread) for instants
	Args  map[string]float64 `json:"args,omitempty"`
}

// TraceFile is the JSON-object flavor of the trace format: an event array
// plus display metadata. Perfetto accepts both the bare-array and object
// forms; the object form lets us carry the recorder's drop counter.
type TraceFile struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// Events converts the recorder's current ring into trace events sorted by
// start time (ring order is commit order, which interleaves concurrent
// spans; viewers want them time-ordered).
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	recs := r.snapshot()
	evs := make([]TraceEvent, len(recs))
	for i, rec := range recs {
		e := TraceEvent{
			Name: rec.name,
			TS:   float64(rec.start.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  int(rec.track),
		}
		if rec.instant {
			e.Phase = "i"
			e.Scope = "t"
		} else {
			e.Phase = "X"
			e.Dur = float64(rec.dur.Nanoseconds()) / 1e3
		}
		if rec.nargs > 0 {
			// encoding/json rejects NaN/Inf; drop non-finite annotations
			// (e.g. a -Inf failed-query value) rather than the whole trace.
			for _, a := range rec.args[:rec.nargs] {
				if math.IsNaN(a.V) || math.IsInf(a.V, 0) {
					continue
				}
				if e.Args == nil {
					e.Args = make(map[string]float64, rec.nargs)
				}
				e.Args[a.K] = a.V
			}
		}
		evs[i] = e
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// WriteTrace writes the recorder's spans as Chrome trace_event JSON. A nil
// recorder writes an empty (still valid) trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tf := TraceFile{
		TraceEvents:     r.Events(),
		DisplayTimeUnit: "ms",
	}
	if tf.TraceEvents == nil {
		tf.TraceEvents = []TraceEvent{}
	}
	if st := r.Stats(); st.Dropped > 0 {
		tf.OtherData = map[string]string{
			"dropped_spans": fmt.Sprintf("%d", st.Dropped),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteTraceFile writes the trace atomically (temp + fsync + rename), so a
// flush racing a crash leaves either the previous complete trace or the new
// one, never a torn file. Safe to call repeatedly; each call rewrites the
// whole file from the current ring.
func (r *Recorder) WriteTraceFile(path string) error {
	return ckpt.AtomicWriteFile(path, r.WriteTrace)
}

// ReadTrace parses a trace produced by WriteTrace (or any object-form
// Chrome trace); genet-inspect uses it to rebuild per-phase wall-clock.
func ReadTrace(rd io.Reader) (TraceFile, error) {
	var tf TraceFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&tf); err != nil {
		return tf, fmt.Errorf("obs: trace does not parse: %w", err)
	}
	for i, e := range tf.TraceEvents {
		if e.Name == "" || (e.Phase != "X" && e.Phase != "i") {
			return tf, fmt.Errorf("obs: trace event %d malformed (name=%q ph=%q)", i, e.Name, e.Phase)
		}
	}
	return tf, nil
}

// ReadTraceFile is ReadTrace over a file path.
func ReadTraceFile(path string) (TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceFile{}, err
	}
	defer f.Close()
	return ReadTrace(f)
}
