package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Mahimahi trace format support. Mahimahi (Netravali et al., ATC'15) is the
// link emulator the paper's testbed uses (§A.4); its trace files contain one
// integer per line: the millisecond timestamp of a packet-delivery
// opportunity, each worth one MTU (1500 bytes). These helpers convert
// between that format and this package's bandwidth time series so recorded
// Mahimahi traces can drive the simulators and synthesized traces can drive
// a real Mahimahi shell.

// mahimahiMTUBits is the size of one delivery opportunity.
const mahimahiMTUBits = 1500 * 8

// maxMahimahiBuckets bounds the bandwidth samples ReadMahimahi produces, so
// a short file with a huge timestamp cannot demand gigabytes: 2^20 buckets
// is six days at the default 0.5 s width.
const maxMahimahiBuckets = 1 << 20

// ReadMahimahi parses a Mahimahi packet-delivery trace into a bandwidth
// time series with the given bucket width (seconds; 0.5 when not a positive
// finite number). Timestamps must be finite, non-negative and
// non-decreasing, and the trace at most maxMahimahiBuckets (2^20) buckets
// long.
func ReadMahimahi(r io.Reader, bucketSec float64) (*Trace, error) {
	if !(bucketSec > 0) || math.IsInf(bucketSec, 1) {
		bucketSec = 0.5
	}
	scanner := bufio.NewScanner(r)
	var stamps []float64
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		ms, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: mahimahi line %d: %w", line, err)
		}
		if math.IsNaN(ms) || math.IsInf(ms, 0) {
			return nil, fmt.Errorf("trace: mahimahi line %d: non-finite timestamp %v", line, ms)
		}
		if ms < 0 {
			return nil, fmt.Errorf("trace: mahimahi line %d: negative timestamp %v", line, ms)
		}
		if len(stamps) > 0 && ms < stamps[len(stamps)-1] {
			return nil, fmt.Errorf("trace: mahimahi line %d: timestamps must be non-decreasing", line)
		}
		stamps = append(stamps, ms)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: mahimahi read: %w", err)
	}
	if len(stamps) == 0 {
		return nil, fmt.Errorf("trace: empty mahimahi trace")
	}

	durSec := stamps[len(stamps)-1]/1000 + bucketSec
	buckets := math.Ceil(durSec / bucketSec)
	if buckets > maxMahimahiBuckets {
		return nil, fmt.Errorf("trace: mahimahi trace spans %.0f buckets of %v s (max %d)", buckets, bucketSec, maxMahimahiBuckets)
	}
	nBuckets := int(buckets)
	counts := make([]int, nBuckets)
	for _, ms := range stamps {
		b := int(ms / 1000 / bucketSec)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		counts[b]++
	}
	t := &Trace{Name: "mahimahi"}
	for b, c := range counts {
		t.Timestamps = append(t.Timestamps, float64(b)*bucketSec)
		t.Bandwidth = append(t.Bandwidth, float64(c)*mahimahiMTUBits/bucketSec/1e6)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: mahimahi: %w", err)
	}
	return t, nil
}

// WriteMahimahi renders the trace as a Mahimahi packet-delivery schedule:
// within each piecewise-constant bandwidth segment, delivery opportunities
// are spaced evenly at the segment's rate.
func (t *Trace) WriteMahimahi(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	carry := 0.0 // fractional packets carried across segments
	for i := range t.Timestamps {
		start := t.Timestamps[i]
		var end float64
		if i+1 < len(t.Timestamps) {
			end = t.Timestamps[i+1]
		} else {
			end = start + 1 // final sample gets one second of width
		}
		rateMbps := t.Bandwidth[i]
		pktPerSec := rateMbps * 1e6 / mahimahiMTUBits
		if pktPerSec <= 0 {
			continue
		}
		span := end - start
		exact := pktPerSec*span + carry
		n := int(exact)
		carry = exact - float64(n)
		for k := 0; k < n; k++ {
			ms := (start + float64(k)/pktPerSec) * 1000
			if _, err := fmt.Fprintf(bw, "%d\n", int64(math.Round(ms))); err != nil {
				return fmt.Errorf("trace: write mahimahi: %w", err)
			}
		}
	}
	return bw.Flush()
}
