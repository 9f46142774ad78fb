package obs

import (
	"context"
	"encoding/json"
	"testing"
)

func TestTraceIDRoundTrips(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 17, 1 << 20, 1 << 40} {
		id := NewTraceID(42, n)
		if id == 0 {
			t.Fatalf("NewTraceID(42, %d) minted zero", n)
		}
		// Hex round trip.
		parsed, err := ParseTraceID(id.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != id {
			t.Fatalf("hex round trip: %v -> %q -> %v", id, id.String(), parsed)
		}
		// Float round trip must be exact — span args carry the float form.
		if got := TraceIDFromFloat(id.Float()); got != id {
			t.Fatalf("float round trip: %v -> %v -> %v", id, id.Float(), got)
		}
		// JSON round trip (access-log lines).
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var back TraceID
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("json round trip: %v -> %s -> %v", id, data, back)
		}
	}
}

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	seen := map[TraceID]bool{}
	for n := uint64(0); n < 1000; n++ {
		a, b := NewTraceID(7, n), NewTraceID(7, n)
		if a != b {
			t.Fatalf("NewTraceID not deterministic at n=%d: %v vs %v", n, a, b)
		}
		if seen[a] {
			t.Fatalf("collision at n=%d: %v", n, a)
		}
		seen[a] = true
	}
	if NewTraceID(7, 3) == NewTraceID(8, 3) {
		t.Fatal("different seeds minted the same stream")
	}
}

func TestParseTraceIDErrors(t *testing.T) {
	if id, err := ParseTraceID(""); err != nil || id != 0 {
		t.Fatalf("empty header should parse to zero, got %v, %v", id, err)
	}
	for _, bad := range []string{"zzz", "-1", "fffffffffffffff1"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Fatalf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != 0 || AttemptFrom(ctx) != 0 {
		t.Fatal("empty context carries trace state")
	}
	id := NewTraceID(1, 1)
	ctx = WithTrace(ctx, id)
	ctx = WithAttempt(ctx, 2)
	if TraceFrom(ctx) != id {
		t.Fatalf("TraceFrom = %v, want %v", TraceFrom(ctx), id)
	}
	if AttemptFrom(ctx) != 2 {
		t.Fatalf("AttemptFrom = %d, want 2", AttemptFrom(ctx))
	}
	// Zero values must not allocate context layers.
	base := context.Background()
	if WithTrace(base, 0) != base || WithAttempt(base, 0) != base {
		t.Fatal("zero trace/attempt wrapped the context")
	}
	// IDs are masked to TraceIDBits; one that masks to zero is no trace.
	if got := TraceFrom(WithTrace(base, 1<<60|5)); got != 5 {
		t.Fatalf("TraceFrom(WithTrace(1<<60|5)) = %v, want 5", got)
	}
	if WithTrace(base, 1<<TraceIDBits) != base {
		t.Fatal("an ID that masks to zero wrapped the context")
	}
}
