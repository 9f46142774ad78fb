package obs

import (
	"fmt"
	"math"
	"testing"
)

// FuzzParseTraceID fuzzes the X-Genet-Trace header parser. It must never
// panic; an accepted ID fits in TraceIDBits and round-trips through its
// String form; a rejected one comes back as zero. Independently, String of
// any uint64 — wider than TraceIDBits or not — must be the %013x form.
func FuzzParseTraceID(f *testing.F) {
	for i, seed := range []string{
		"", "0", "1", "0000000000abc", "fffffffffffff", "FFFFFFFFFFFFF", "10000000000000",
		"zzz", "-1", "+1", "0x1f", "1_0", "fffffffffffffff1", " 1", "00000000000000000000001",
	} {
		wide := []uint64{0, 1, traceIDMask, traceIDMask + 1, 1 << 63, math.MaxUint64, 0xabc}
		f.Add(seed, wide[i%len(wide)])
	}
	f.Fuzz(func(t *testing.T, s string, v uint64) {
		if got, want := TraceID(v).String(), fmt.Sprintf("%013x", v); got != want {
			t.Fatalf("TraceID(%#x).String() = %q, want %q", v, got, want)
		}
		id, err := ParseTraceID(s)
		if err != nil {
			if id != 0 {
				t.Fatalf("rejected %q parsed to %v", s, id)
			}
			return
		}
		if uint64(id)>>TraceIDBits != 0 {
			t.Fatalf("accepted %q parsed to %#x, wider than %d bits", s, uint64(id), TraceIDBits)
		}
		back, err := ParseTraceID(id.String())
		if err != nil || back != id {
			t.Fatalf("%q: %v -> %q -> (%v, %v)", s, id, id.String(), back, err)
		}
	})
}
