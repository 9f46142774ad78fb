package faults

import (
	"strings"
	"sync"
	"testing"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.Fire(GradPoison) {
		t.Fatal("nil injector fired")
	}
	if in.SiteEnabled(EnvStepPanic) {
		t.Fatal("nil injector reports site enabled")
	}
	st := in.Stream(EnvStepPanic, 7)
	for i := 0; i < 100; i++ {
		if st.Fire() {
			t.Fatal("stream from nil injector fired")
		}
	}
	if in.Calls(GradPoison) != 0 || in.Fired(GradPoison) != 0 || in.TotalFired() != 0 {
		t.Fatal("nil injector has nonzero counters")
	}
	if in.String() != "off" {
		t.Fatalf("nil injector String = %q, want off", in.String())
	}
}

func TestDisabledSiteNeverFires(t *testing.T) {
	in := New(1)
	in.Enable(GradPoison, 2)
	for i := 0; i < 1000; i++ {
		if in.Fire(CkptWriteFail) {
			t.Fatal("disabled site fired")
		}
	}
	if in.Calls(CkptWriteFail) != 0 {
		t.Fatal("disabled site counted calls")
	}
}

func TestFireScheduleIsDeterministic(t *testing.T) {
	run := func() []bool {
		in := New(99)
		in.Enable(GradPoison, 3)
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Fire(GradPoison)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	// everyN=3 over 200 calls: expect roughly 200/3 fires; accept a wide
	// deterministic band so a hash tweak fails loudly, not flakily.
	if fired < 30 || fired > 110 {
		t.Fatalf("fired %d/200 with everyN=3; schedule badly skewed", fired)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	seq := func(seed int64) string {
		in := New(seed)
		in.Enable(BOQueryFail, 2)
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if in.Fire(BOQueryFail) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if seq(1) == seq(2) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestStreamIndependentOfInterleaving(t *testing.T) {
	// The decisions of a keyed stream must depend only on (seed, site,
	// key, local count) — interleaving calls from another stream or the
	// global counter must not change them.
	decisions := func(perturb bool) []bool {
		in := New(7)
		in.Enable(EnvStepPanic, 4)
		in.Enable(GradPoison, 2)
		st := in.Stream(EnvStepPanic, 42)
		other := in.Stream(EnvStepPanic, 43)
		out := make([]bool, 100)
		for i := range out {
			if perturb {
				other.Fire()
				in.Fire(GradPoison)
			}
			out[i] = st.Fire()
		}
		return out
	}
	a, b := decisions(false), decisions(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream decision %d changed under interleaving", i)
		}
	}
}

func TestStreamKeysAreIndependent(t *testing.T) {
	in := New(7)
	in.Enable(TraceCorrupt, 2)
	seq := func(key int64) string {
		st := in.Stream(TraceCorrupt, key)
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if st.Fire() {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if seq(1) == seq(2) {
		t.Fatal("different stream keys produced identical schedules")
	}
}

// TestStreamSitesAreIndependent: one key armed at two sites at the same
// rate draws two schedules, because the stream hash covers the site. A
// rollout slot's env-step and trace-corrupt streams share their key.
func TestStreamSitesAreIndependent(t *testing.T) {
	in := New(7)
	in.Enable(EnvStepPanic, 2)
	in.Enable(TraceCorrupt, 2)
	seq := func(s Site) string {
		st := in.Stream(s, 42)
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if st.Fire() {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if a, b := seq(EnvStepPanic), seq(TraceCorrupt); a == b {
		t.Fatalf("env-step and trace-corrupt streams of one key share a schedule: %s", a)
	}
}

func TestEveryOneAlwaysFires(t *testing.T) {
	in := New(3)
	in.Enable(CkptWriteFail, 1)
	for i := 0; i < 50; i++ {
		if !in.Fire(CkptWriteFail) {
			t.Fatalf("everyN=1 did not fire on call %d", i)
		}
	}
	if in.Fired(CkptWriteFail) != 50 || in.Calls(CkptWriteFail) != 50 {
		t.Fatalf("counters = %d/%d, want 50/50", in.Fired(CkptWriteFail), in.Calls(CkptWriteFail))
	}
}

func TestCountersUnderConcurrency(t *testing.T) {
	in := New(11)
	in.Enable(EnvStepPanic, 3)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(key int64) {
			defer wg.Done()
			st := in.Stream(EnvStepPanic, key)
			for i := 0; i < per; i++ {
				st.Fire()
			}
		}(int64(w))
	}
	wg.Wait()
	if got := in.Calls(EnvStepPanic); got != workers*per {
		t.Fatalf("calls = %d, want %d", got, workers*per)
	}
	// Totals are deterministic even though arrival order is not: each
	// stream's fired count is a pure function of its key.
	want := in.Fired(EnvStepPanic)
	in2 := New(11)
	in2.Enable(EnvStepPanic, 3)
	for w := 0; w < workers; w++ {
		st := in2.Stream(EnvStepPanic, int64(w))
		for i := 0; i < per; i++ {
			st.Fire()
		}
	}
	if got := in2.Fired(EnvStepPanic); got != want {
		t.Fatalf("sequential replay fired %d, concurrent run fired %d", got, want)
	}
}

// TestFireDecisionsDeterministicUnderConcurrency pins the injector's core
// contract under -race: the decision for the k-th arrival at a site is a
// pure function of (seed, site, k), so with N total arrivals split across
// racing goroutines the multiset of decisions — and therefore the calls and
// fired totals — is identical to a sequential run of N arrivals, no matter
// how the scheduler interleaves them. (Which goroutine observes which
// decision is scheduling-dependent; which decisions exist is not.)
func TestFireDecisionsDeterministicUnderConcurrency(t *testing.T) {
	const workers, per = 8, 400
	const total = workers * per

	// Sequential reference: decision per call index.
	ref := New(23)
	ref.Enable(GradPoison, 3)
	refFired := 0
	for i := 0; i < total; i++ {
		if ref.Fire(GradPoison) {
			refFired++
		}
	}

	for rep := 0; rep < 4; rep++ {
		in := New(23)
		in.Enable(GradPoison, 3)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					in.Fire(GradPoison)
				}
			}()
		}
		wg.Wait()
		if got := in.Calls(GradPoison); got != total {
			t.Fatalf("rep %d: calls = %d, want %d", rep, got, total)
		}
		if got := int(in.Fired(GradPoison)); got != refFired {
			t.Fatalf("rep %d: concurrent fired %d, sequential fired %d", rep, got, refFired)
		}
	}
}

// TestStreamDecisionsDeterministicUnderConcurrency: a keyed stream's k-th
// decision depends only on (seed, site, key, k). Racing streams with other
// keys — and global-counter Fire traffic on the same site — must not change
// any stream's per-index decision sequence.
func TestStreamDecisionsDeterministicUnderConcurrency(t *testing.T) {
	const workers, per = 8, 300

	sequences := func(noise bool) [][]bool {
		in := New(31)
		in.Enable(TraceCorrupt, 4)
		out := make([][]bool, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := in.Stream(TraceCorrupt, int64(1000+w))
				seq := make([]bool, per)
				for i := range seq {
					if noise {
						// Global-counter traffic racing on the same site.
						in.Fire(TraceCorrupt)
					}
					seq[i] = st.Fire()
				}
				out[w] = seq
			}(w)
		}
		wg.Wait()
		return out
	}

	quiet, noisy := sequences(false), sequences(true)
	for w := range quiet {
		for i := range quiet[w] {
			if quiet[w][i] != noisy[w][i] {
				t.Fatalf("stream %d decision %d changed under concurrent interleaving", w, i)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec(5, "grad-nan:3, env-step:500,ckpt-write:1")
	if err != nil {
		t.Fatal(err)
	}
	if !in.SiteEnabled(GradPoison) || !in.SiteEnabled(EnvStepPanic) || !in.SiteEnabled(CkptWriteFail) {
		t.Fatal("spec sites not enabled")
	}
	if in.SiteEnabled(BOQueryFail) || in.SiteEnabled(TraceCorrupt) {
		t.Fatal("unlisted sites enabled")
	}

	in, err = ParseSpec(5, "all:10")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sites() {
		if !in.SiteEnabled(s) {
			t.Fatalf("all:10 left %s disabled", s)
		}
	}

	if in, err := ParseSpec(5, ""); err != nil || in != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", in, err)
	}
	for _, bad := range []string{"nope:3", "grad-nan", "grad-nan:0", "grad-nan:-2", "grad-nan:x"} {
		if _, err := ParseSpec(5, bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestStringSummary(t *testing.T) {
	in := New(1)
	if in.String() != "off" {
		t.Fatalf("disabled injector String = %q", in.String())
	}
	in.Enable(GradPoison, 1)
	in.Fire(GradPoison)
	if got := in.String(); !strings.Contains(got, "grad-nan: 1/1") {
		t.Fatalf("String = %q, want grad-nan: 1/1", got)
	}
}

func TestInjectedError(t *testing.T) {
	e := Injected{Site: EnvStepPanic}
	if !strings.Contains(e.Error(), "env-step") {
		t.Fatalf("Injected error %q missing site name", e.Error())
	}
}

func BenchmarkFireDisabled(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if in.Fire(GradPoison) {
			b.Fatal("fired")
		}
	}
}

func BenchmarkFireEnabled(b *testing.B) {
	in := New(1)
	in.Enable(GradPoison, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Fire(GradPoison)
	}
}
