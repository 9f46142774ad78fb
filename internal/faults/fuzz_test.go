package faults

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSpec fuzzes the -inject spec parser. It must never panic; an
// accepted spec arms only sites it names (or all of them, via "all"), each
// at a positive rate, and only a blank spec yields a nil injector; a
// rejected spec returns a nil injector and an error.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", " ", ",", "grad-nan:3", "all:10", "grad-nan:3, env-step:500,ckpt-write:1",
		" env-step : 7 ", "all:1,grad-nan:2", "nope:3", "grad-nan", "grad-nan:0",
		"grad-nan:-2", "grad-nan:x", "grad-nan:99999999999999999999", ":3", "all",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := ParseSpec(1, spec)
		if err != nil {
			if in != nil {
				t.Fatalf("rejected spec %q returned an injector", spec)
			}
			return
		}
		if in == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("accepted spec %q returned a nil injector", spec)
			}
			return
		}
		// The rates the spec gives each name, for the armed-site check.
		rates := map[string][]int{}
		for _, part := range strings.Split(spec, ",") {
			name, rate, ok := strings.Cut(part, ":")
			if !ok {
				continue
			}
			n, err := strconv.Atoi(strings.TrimSpace(rate))
			if err != nil {
				t.Fatalf("accepted spec %q has a bad rate %q", spec, rate)
			}
			name = strings.TrimSpace(name)
			rates[name] = append(rates[name], n)
		}
		for _, s := range Sites() {
			if !in.SiteEnabled(s) {
				continue
			}
			given := append(rates[s.String()], rates["all"]...)
			if len(given) == 0 {
				t.Fatalf("spec %q armed %s, which it does not name", spec, s)
			}
			for _, n := range given {
				if n <= 0 {
					t.Fatalf("spec %q armed %s at rate %d", spec, s, n)
				}
			}
		}
		if in.TotalFired() != 0 {
			t.Fatalf("fresh injector from %q has fired", spec)
		}
		_ = in.String()
	})
}
