package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The trace decoders read untrusted files. On any input they must return an
// error or a trace that passes Validate — never panic, never allocate in
// proportion to a number in the file rather than to the file — and an
// accepted trace must survive its writer unchanged. The seeds include the
// inputs that once crashed ReadMahimahi (makeslice panics on NaN, Inf and
// 1e300; a 16 GB allocation on "0\n1e12\n") and that ReadCSV once accepted
// (non-finite samples).

func FuzzReadCSV(f *testing.F) {
	f.Add("0,1\n1,2.5\n")
	f.Add("0,NaN\n")
	f.Add("NaN,1\n")
	f.Add("0,Inf\n1,2\n")
	f.Add("0,-1\n")
	f.Add("1,1\n0,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted trace: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil || !reflect.DeepEqual(again, tr) {
			t.Fatalf("CSV round trip: %+v, %v; want %+v", again, err, tr)
		}
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"s","traces":[{"name":"a","timestamps":[0,1],"bandwidth":[1,2]}]}`)
	f.Add(`{"traces":[{"timestamps":[0,0],"bandwidth":[1,2]}]}`)
	f.Add(`{"traces":[{"timestamps":[0],"bandwidth":[1e400]}]}`)
	f.Add(`{"traces":[{"timestamps":[],"bandwidth":[]}]}`)
	f.Add(`{"traces":[null]}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, tr := range s.Traces {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ReadJSON accepted invalid trace %d: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted set: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("JSON round trip: %+v, %v; want %+v", again, err, s)
		}
	})
}

func FuzzReadMahimahi(f *testing.F) {
	f.Add("0\n5\n5\n12\n900\n", 0.5)
	f.Add("NaN\n", 0.5)
	f.Add("Inf\n", 0.5)
	f.Add("1e300\n", 0.5)
	f.Add("0\n1e12\n", 0.5)
	f.Add("# comment\n\n3\n", 0.0)
	f.Add("0\n1000\n", 1e-300) // overflows the bandwidth to +Inf
	f.Fuzz(func(t *testing.T, in string, bucketSec float64) {
		tr, err := ReadMahimahi(strings.NewReader(in), bucketSec)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadMahimahi accepted an invalid trace: %v", err)
		}
		if n := len(tr.Timestamps); n > maxMahimahiBuckets {
			t.Fatalf("ReadMahimahi produced %d buckets, max %d", n, maxMahimahiBuckets)
		}
	})
}
