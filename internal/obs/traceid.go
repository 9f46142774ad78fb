package obs

import (
	"context"
	"fmt"
	"strconv"
)

// TraceID identifies one request end to end: minted at admission (or
// accepted from a propagation header), carried through retries and fallbacks
// via context, stamped into responses, written on every access-log line, and
// attached to flight-recorder spans — the join key between the access log,
// the latency histogram's exemplars, and the span trace.
//
// IDs are confined to 52 bits so a TraceID round-trips exactly through a
// float64 span annotation (Arg values and trace_event args are floats); zero
// means "no trace".
type TraceID uint64

// TraceIDBits is the ID width: 2^52 ids keep the value exact in a float64
// span arg while leaving collisions negligible for any realistic run.
const TraceIDBits = 52

const traceIDMask = (uint64(1) << TraceIDBits) - 1

// String renders the ID as fixed-width lowercase hex (13 digits for 52
// bits) — the form used in headers, access logs, and genet-inspect output.
func (t TraceID) String() string {
	var buf [16]byte
	return string(t.AppendHex(buf[:0]))
}

// AppendHex appends String's form to dst without allocating: 13 zero-padded
// lowercase hex digits, or, for a value wider than TraceIDBits, its
// unpadded hex (what %013x prints for it).
func (t TraceID) AppendHex(dst []byte) []byte {
	v := uint64(t)
	if v > traceIDMask {
		return strconv.AppendUint(dst, v, 16)
	}
	const digits = "0123456789abcdef"
	for shift := TraceIDBits - 4; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>shift&0xf])
	}
	return dst
}

// Float converts the ID to the float64 form spans carry. Exact by
// construction (52 bits <= the float64 mantissa).
func (t TraceID) Float() float64 { return float64(t) }

// TraceIDFromFloat recovers an ID from a span annotation.
func TraceIDFromFloat(v float64) TraceID {
	if v < 0 || v != float64(uint64(v)) {
		return 0
	}
	return TraceID(uint64(v) & traceIDMask)
}

// MarshalJSON writes the hex form, so access-log lines are greppable
// against headers and inspect output.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the hex form (quoted).
func (t *TraceID) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("obs: trace id must be a hex string, got %s", data)
	}
	id, err := ParseTraceID(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// ParseTraceID parses the hex form. An out-of-range or malformed ID is an
// error; an empty string is TraceID(0) ("no trace"), so absent headers
// parse cleanly.
func ParseTraceID(s string) (TraceID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	if v > traceIDMask {
		return 0, fmt.Errorf("obs: trace id %q exceeds %d bits", s, TraceIDBits)
	}
	return TraceID(v), nil
}

// NewTraceID derives the n-th ID of a seeded stream via splitmix64 — the
// minting primitive behind servers, clients, and load generators. It is a
// pure function of (seed, n), so seeded runs mint reproducible IDs.
func NewTraceID(seed, n uint64) TraceID {
	z := seed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = (z ^ (z >> 31)) & traceIDMask
	if z == 0 {
		z = 1
	}
	return TraceID(z)
}

// Span-annotation keys shared by everything that tags spans with request
// identity, so genet-inspect can join spans to access-log lines by one
// vocabulary.
const (
	// ArgTrace carries TraceID.Float().
	ArgTrace = "trace"
	// ArgAttempt is the client retry attempt index (0 = first try).
	ArgAttempt = "attempt"
)

type traceCtxKey struct{}
type attemptCtxKey struct{}

// WithTrace attaches a trace ID to ctx; DecideCtx implementations read it so
// retries, fallbacks, and server-side logs all attach to the originating
// request. The ID is masked to TraceIDBits, the width every reader of it
// (ParseTraceID, access logs, span args) accepts; an ID that masks to zero
// means "no trace" and leaves ctx unchanged.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	id &= TraceID(traceIDMask)
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, id)
}

// TraceFrom returns the trace ID attached to ctx (0 when absent).
func TraceFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceCtxKey{}).(TraceID)
	return id
}

// WithAttempt attaches a client retry attempt index to ctx so the server's
// access log can distinguish a retry storm from distinct requests.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	if attempt <= 0 {
		return ctx
	}
	return context.WithValue(ctx, attemptCtxKey{}, attempt)
}

// AttemptFrom returns the attempt index attached to ctx (0 when absent).
func AttemptFrom(ctx context.Context) int {
	n, _ := ctx.Value(attemptCtxKey{}).(int)
	return n
}
