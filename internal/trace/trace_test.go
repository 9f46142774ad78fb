package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkTrace(t *testing.T, ts, bw []float64) *Trace {
	t.Helper()
	tr := &Trace{Timestamps: ts, Bandwidth: bw}
	if err := tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	return tr
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := (&Trace{}).Validate(); err == nil {
		t.Fatal("empty trace validated")
	}
}

func TestValidateRejectsLengthMismatch(t *testing.T) {
	tr := &Trace{Timestamps: []float64{0, 1}, Bandwidth: []float64{1}}
	if err := tr.Validate(); err == nil {
		t.Fatal("mismatched trace validated")
	}
}

func TestValidateRejectsNonIncreasing(t *testing.T) {
	tr := &Trace{Timestamps: []float64{0, 0}, Bandwidth: []float64{1, 1}}
	if err := tr.Validate(); err == nil {
		t.Fatal("non-increasing timestamps validated")
	}
}

func TestValidateRejectsNegativeBandwidth(t *testing.T) {
	tr := &Trace{Timestamps: []float64{0}, Bandwidth: []float64{-1}}
	if err := tr.Validate(); err == nil {
		t.Fatal("negative bandwidth validated")
	}
}

func TestDuration(t *testing.T) {
	tr := mkTrace(t, []float64{2, 5, 9}, []float64{1, 2, 3})
	if got := tr.Duration(); got != 7 {
		t.Fatalf("Duration = %v, want 7", got)
	}
}

func TestAtPiecewiseConstant(t *testing.T) {
	tr := mkTrace(t, []float64{0, 10, 20}, []float64{1, 2, 3})
	cases := []struct{ ts, want float64 }{
		{-5, 1}, {0, 1}, {5, 1}, {10, 2}, {15, 2}, {20, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := tr.At(c.ts); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.ts, got, c.want)
		}
	}
}

func TestAtWrappedReplays(t *testing.T) {
	tr := mkTrace(t, []float64{0, 10}, []float64{1, 2})
	// Duration 10; t=25 wraps to t=5 -> bandwidth 1.
	if got := tr.AtWrapped(25); got != 1 {
		t.Fatalf("AtWrapped(25) = %v, want 1", got)
	}
	// t=12 wraps to 2 -> 1; t=30 wraps to 0 -> 1; t=19->9... 19 mod 10 = 9 -> 1? No: 9 < 10 so bandwidth 1.
	if got := tr.AtWrapped(12); got != 1 {
		t.Fatalf("AtWrapped(12) = %v, want 1", got)
	}
}

// TestAtWrappedHintSpanEdges pins the offsets where AtWrappedHint's
// in-span shortcut around math.Mod starts and stops: the result must equal
// the always-Mod fold at zero, negative zero, one ulp either side of both
// span ends, and the span end itself, which wraps to the start.
func TestAtWrappedHintSpanEdges(t *testing.T) {
	tr := mkTrace(t, []float64{0, 4, 10}, []float64{1, 2, 3})
	d := tr.Duration()
	negZero := math.Copysign(0, -1)
	for _, ts := range []float64{0, negZero, math.Nextafter(0, -1), math.Nextafter(0, 1),
		math.Nextafter(d, 0), d, math.Nextafter(d, 20), 4, 14, -6, 3 * d} {
		off := math.Mod(ts-tr.Timestamps[0], d)
		if off < 0 {
			off += d
		}
		want := tr.At(tr.Timestamps[0] + off)
		if got, _ := tr.AtWrappedHint(ts, 0); got != want {
			t.Errorf("AtWrappedHint(%v) = %v, always-Mod fold = %v", ts, got, want)
		}
	}
	if got, _ := tr.AtWrappedHint(d, 0); got != 1 {
		t.Errorf("AtWrappedHint(duration) = %v, want the first sample's 1", got)
	}
}

func TestAtWrappedNegativeOffset(t *testing.T) {
	tr := mkTrace(t, []float64{5, 15}, []float64{1, 2})
	// ts before start wraps backwards without panicking.
	got := tr.AtWrapped(0)
	if got != 1 && got != 2 {
		t.Fatalf("AtWrapped(0) = %v", got)
	}
}

func TestMeanTimeWeighted(t *testing.T) {
	// 10s at 1 Mbps then the final sample (no width) at 3.
	tr := mkTrace(t, []float64{0, 10}, []float64{1, 3})
	if got := tr.Mean(); got != 1 {
		t.Fatalf("Mean = %v, want 1 (time-weighted)", got)
	}
	single := mkTrace(t, []float64{0}, []float64{4})
	if got := single.Mean(); got != 4 {
		t.Fatalf("Mean singleton = %v, want 4", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mkTrace(t, []float64{0, 1}, []float64{1, 2})
	c := tr.Clone()
	c.Bandwidth[0] = 99
	if tr.Bandwidth[0] == 99 {
		t.Fatal("Clone shares bandwidth storage")
	}
}

func TestScale(t *testing.T) {
	tr := mkTrace(t, []float64{0, 1}, []float64{1, 2})
	s := tr.Scale(2)
	if s.Bandwidth[0] != 2 || s.Bandwidth[1] != 4 {
		t.Fatalf("Scale = %v", s.Bandwidth)
	}
	if tr.Bandwidth[0] != 1 {
		t.Fatal("Scale mutated original")
	}
}

func TestExtractFeatures(t *testing.T) {
	tr := mkTrace(t, []float64{0, 1, 2, 3}, []float64{1, 1, 3, 3})
	f := ExtractFeatures(tr)
	if f.MinBW != 1 || f.MaxBW != 3 {
		t.Fatalf("features min/max = %v/%v", f.MinBW, f.MaxBW)
	}
	if f.Duration != 3 {
		t.Fatalf("features duration = %v", f.Duration)
	}
	// One change at t=2, measured from t=0: interval 2.
	if f.ChangeInterval != 2 {
		t.Fatalf("change interval = %v, want 2", f.ChangeInterval)
	}
	if f.VarBW <= 0 {
		t.Fatalf("variance = %v, want > 0", f.VarBW)
	}
}

func TestExtractFeaturesConstantTrace(t *testing.T) {
	tr := mkTrace(t, []float64{0, 1, 2}, []float64{5, 5, 5})
	f := ExtractFeatures(tr)
	if f.VarBW != 0 {
		t.Fatalf("variance of constant = %v", f.VarBW)
	}
	if f.ChangeInterval != f.Duration {
		t.Fatalf("no-change interval = %v, want duration %v", f.ChangeInterval, f.Duration)
	}
}

func TestSetSplitPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &Set{Name: "s"}
	for i := 0; i < 10; i++ {
		s.Traces = append(s.Traces, mkTrace(t, []float64{0, 1}, []float64{float64(i + 1), float64(i + 1)}))
	}
	train, test := s.Split(0.7, rng)
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	seen := map[*Trace]bool{}
	for _, tr := range append(train.Traces, test.Traces...) {
		if seen[tr] {
			t.Fatal("trace appears twice after split")
		}
		seen[tr] = true
	}
	if len(seen) != 10 {
		t.Fatalf("split lost traces: %d", len(seen))
	}
}

func TestSetSampleAndFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := &Set{}
	if s.Sample(rng) != nil {
		t.Fatal("Sample of empty set should be nil")
	}
	s.Traces = append(s.Traces,
		mkTrace(t, []float64{0, 1}, []float64{1, 1}),
		mkTrace(t, []float64{0, 1}, []float64{10, 10}))
	fast := s.Filter(func(f Features) bool { return f.MeanBW > 5 })
	if fast.Len() != 1 {
		t.Fatalf("Filter kept %d traces, want 1", fast.Len())
	}
	if got := s.Sample(rng); got == nil {
		t.Fatal("Sample returned nil for non-empty set")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := mkTrace(t, []float64{0, 1.5, 3}, []float64{1.25, 2, 0.5})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Timestamps {
		if tr.Timestamps[i] != back.Timestamps[i] || tr.Bandwidth[i] != back.Bandwidth[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("garbage CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n0,3\n")); err == nil {
		t.Fatal("non-increasing CSV accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Set{Name: "x", Traces: []*Trace{mkTrace(t, []float64{0, 1}, []float64{1, 2})}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "x" || back.Len() != 1 || back.Traces[0].Bandwidth[1] != 2 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestReadJSONValidates(t *testing.T) {
	bad := `{"name":"b","traces":[{"timestamps":[1,0],"bandwidth":[1,1]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("invalid set accepted")
	}
}

func TestAtMatchesLinearScan(t *testing.T) {
	// Property: binary-search At agrees with a linear scan.
	f := func(seed int64, q float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		ts := make([]float64, n)
		bw := make([]float64, n)
		cur := 0.0
		for i := range ts {
			cur += 0.1 + rng.Float64()
			ts[i] = cur
			bw[i] = rng.Float64() * 10
		}
		tr := &Trace{Timestamps: ts, Bandwidth: bw}
		query := ts[0] + math.Mod(math.Abs(q), tr.Duration()+2)
		want := bw[0]
		for i := range ts {
			if ts[i] <= query {
				want = bw[i]
			}
		}
		return tr.At(query) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAtHintMatchesAt sweeps forward, backward, and random query patterns
// with an arbitrary (including stale or out-of-range) carried hint and
// requires AtHint/AtWrappedHint to agree exactly with the binary-search At.
func TestAtHintMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ts := make([]float64, 40)
	bw := make([]float64, 40)
	cur := 0.0
	for i := range ts {
		cur += 0.1 + rng.Float64()
		ts[i] = cur
		bw[i] = 0.5 + 5*rng.Float64()
	}
	tr := mkTrace(t, ts, bw)

	check := func(q float64, hint int) int {
		got, newHint := tr.AtHint(q, hint)
		if want := tr.At(q); got != want {
			t.Fatalf("AtHint(%g, hint=%d) = %g, At = %g", q, hint, got, want)
		}
		if newHint < 0 || newHint >= len(ts) {
			t.Fatalf("AtHint(%g, hint=%d) returned hint %d out of range", q, hint, newHint)
		}
		wGot, _ := tr.AtWrappedHint(q, hint)
		if wWant := tr.AtWrapped(q); wGot != wWant {
			t.Fatalf("AtWrappedHint(%g, hint=%d) = %g, AtWrapped = %g", q, hint, wGot, wWant)
		}
		return newHint
	}

	// Monotone forward sweep carrying the hint (the simulator pattern),
	// stepping both within and across segments.
	hint := 0
	for q := ts[0] - 0.5; q < ts[len(ts)-1]+0.5; q += 0.07 {
		hint = check(q, hint)
	}
	// Random queries with random (possibly stale) hints.
	for i := 0; i < 500; i++ {
		q := ts[0] - 1 + rng.Float64()*(tr.Duration()+2)
		check(q, rng.Intn(3*len(ts))-len(ts))
	}
	// Backward sweep: hints always ahead of the query.
	hint = len(ts) - 1
	for q := ts[len(ts)-1]; q > ts[0]; q -= 0.21 {
		hint = check(q, hint)
	}
}
