// Package faults is a seeded, deterministic fault injector for chaos
// testing the training stack. An *Injector is nil-safe in the same way
// internal/metrics' *Registry is: a nil injector means "injection off",
// every decision method starts with one nil check, and the disabled path
// performs zero allocations, so production call sites carry no cost.
//
// Each injection site fires on a reproducible schedule derived from
// (seed, site, call-count): the decision for the k-th arrival at a site
// is a pure hash of those three values, so a chaos run is replayable
// bit-for-bit given the same seed and the same call sequence. Sites
// reached from parallel workers (env steps inside rollout goroutines)
// must not share one global counter — goroutine scheduling would make
// attribution nondeterministic — so those call sites derive a Stream
// keyed by a deterministic per-worker value (the env seed) and count
// locally. Sequential sites (gradient applies, BO queries, checkpoint
// writes) use the injector's per-site counter directly.
//
// Counters advance monotonically for the whole process lifetime and are
// deliberately NOT part of checkpoint state: after the trainer rolls
// back and replays, the replay arrives at each site with a later call
// count, draws a fresh schedule, and can escape a fault that would
// otherwise re-fire identically forever.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Site names one fault-injection point in the stack.
type Site uint8

const (
	// EnvStepPanic panics inside an environment Step during a training
	// rollout (worker goroutine; use Stream keyed by the env seed).
	EnvStepPanic Site = iota
	// GradPoison writes NaN into the policy gradient just before the
	// optimizer apply.
	GradPoison
	// TraceCorrupt corrupts an observation (a trace sample) returned by
	// an environment Step (worker goroutine; use Stream).
	TraceCorrupt
	// BOQueryFail makes a Bayesian-optimization objective query fail.
	BOQueryFail
	// CkptWriteFail makes a checkpoint write return an error.
	CkptWriteFail
	// DecideLatency injects a latency spike into a policy server's decide
	// path (the model evaluation stalls before answering).
	DecideLatency
	// DecideError makes a policy server's model evaluation fail as if the
	// network produced a non-finite output — the signal the degraded-mode
	// quarantine watches for.
	DecideError
	// SwapCorrupt corrupts a hot-swap candidate in the serving watcher, as
	// a non-atomic producer or a partial copy would.
	SwapCorrupt
	// ClientDrop drops a serve client's request on the floor before it
	// reaches the network, as a connection reset would.
	ClientDrop

	numSites
)

var siteNames = [numSites]string{
	EnvStepPanic:  "env-step",
	GradPoison:    "grad-nan",
	TraceCorrupt:  "trace-corrupt",
	BOQueryFail:   "bo-query",
	CkptWriteFail: "ckpt-write",
	DecideLatency: "decide-latency",
	DecideError:   "decide-error",
	SwapCorrupt:   "swap-corrupt",
	ClientDrop:    "client-drop",
}

// String returns the spec name of the site ("env-step", "grad-nan", ...).
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Sites lists every site in declaration order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Injected is the panic value used by injected panics, so containment
// layers can distinguish a chaos fault from a genuine bug.
type Injected struct {
	Site Site
}

func (e Injected) Error() string { return "faults: injected " + e.Site.String() + " fault" }

// Injector decides, deterministically, whether each arrival at a site
// should fault. The zero value is unusable; build one with New or
// ParseSpec. A nil *Injector is valid and means "everything disabled".
type Injector struct {
	seed   int64
	thresh [numSites]uint64 // 0 = site disabled; else fire when hash < thresh
	calls  [numSites]atomic.Uint64
	fired  [numSites]atomic.Uint64
}

// New returns an injector with every site disabled. Enable sites with
// Enable before use.
func New(seed int64) *Injector { return &Injector{seed: seed} }

// Enable arms a site to fire on average once per everyN arrivals
// (everyN == 1 fires on every arrival; everyN <= 0 disables the site).
func (in *Injector) Enable(s Site, everyN int) {
	if everyN <= 0 {
		in.thresh[s] = 0
		return
	}
	in.thresh[s] = math.MaxUint64 / uint64(everyN)
}

// SiteEnabled reports whether the site is armed. Nil-safe.
func (in *Injector) SiteEnabled(s Site) bool { return in != nil && in.thresh[s] != 0 }

// Fire reports whether the current arrival at a sequential site should
// fault, and advances that site's call count. Nil-safe; the disabled
// path is one nil check (or one load of a zero threshold) and does not
// allocate. Call sites reached concurrently should use Stream instead
// so the schedule does not depend on goroutine interleaving.
func (in *Injector) Fire(s Site) bool {
	if in == nil || in.thresh[s] == 0 {
		return false
	}
	n := in.calls[s].Add(1)
	if in.decide(s, uint64(s)<<32, n) {
		in.fired[s].Add(1)
		return true
	}
	return false
}

// Stream returns an independent decision stream for a parallel call
// site, keyed by a caller-chosen deterministic value (for rollout envs,
// the env seed). The stream counts arrivals locally, so its schedule is
// a pure function of (seed, site, key, local-count) and is immune to
// goroutine scheduling. Calling Stream on a nil or disabled injector
// returns a disabled stream.
func (in *Injector) Stream(s Site, key int64) Stream {
	if in == nil || in.thresh[s] == 0 {
		return Stream{}
	}
	return Stream{in: in, site: s, salt: mix(uint64(key) ^ uint64(s)<<56)}
}

// Stream is a per-worker fault-decision stream. The zero value is
// disabled. Streams are value types; keep one per worker, do not share.
type Stream struct {
	in   *Injector
	site Site
	salt uint64 // the hashed (key, site) pair
	n    uint64
}

// Enabled reports whether the stream can ever fire.
func (st *Stream) Enabled() bool { return st.in != nil }

// Fire reports whether the current arrival should fault, advancing the
// stream's local count. The parent injector's call/fired totals are
// updated for reporting; the decision itself uses only local state.
func (st *Stream) Fire() bool {
	if st.in == nil {
		return false
	}
	st.n++
	st.in.calls[st.site].Add(1)
	if st.in.decide(st.site, st.salt, st.n) {
		st.in.fired[st.site].Add(1)
		return true
	}
	return false
}

// decide hashes (seed, site-salt, count) and compares against the
// site's threshold. salt distinguishes the global counter stream from
// keyed streams (and keyed streams from each other).
func (in *Injector) decide(s Site, salt, n uint64) bool {
	h := mix(uint64(in.seed) ^ salt ^ (n * 0x9e3779b97f4a7c15))
	return h < in.thresh[s]
}

// mix is the splitmix64 finalizer: cheap, stateless, well distributed.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Calls returns how many arrivals the site has seen. Nil-safe.
func (in *Injector) Calls(s Site) uint64 {
	if in == nil {
		return 0
	}
	return in.calls[s].Load()
}

// Fired returns how many arrivals at the site faulted. Nil-safe.
func (in *Injector) Fired(s Site) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[s].Load()
}

// TotalFired sums fired counts across all sites. Nil-safe.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for s := Site(0); s < numSites; s++ {
		t += in.fired[s].Load()
	}
	return t
}

// String summarizes armed sites as "site: fired/calls" pairs, e.g.
// "grad-nan: 3/12, ckpt-write: 1/5". Nil and fully disabled injectors
// report "off".
func (in *Injector) String() string {
	if in == nil {
		return "off"
	}
	var b strings.Builder
	for s := Site(0); s < numSites; s++ {
		if in.thresh[s] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d/%d", s, in.fired[s].Load(), in.calls[s].Load())
	}
	if b.Len() == 0 {
		return "off"
	}
	return b.String()
}

// ParseSpec builds an injector from a comma-separated spec of
// "site:everyN" pairs, e.g. "grad-nan:3,env-step:500". The pseudo-site
// "all" arms every site at the given rate. An empty spec returns nil
// (injection off). Unknown sites and non-positive rates are errors.
func ParseSpec(seed int64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rateStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faults: bad spec entry %q (want site:everyN)", part)
		}
		rate, err := strconv.Atoi(strings.TrimSpace(rateStr))
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("faults: bad rate in %q (want positive integer)", part)
		}
		name = strings.TrimSpace(name)
		if name == "all" {
			for s := Site(0); s < numSites; s++ {
				in.Enable(s, rate)
			}
			continue
		}
		site, err := siteByName(name)
		if err != nil {
			return nil, err
		}
		in.Enable(site, rate)
	}
	return in, nil
}

func siteByName(name string) (Site, error) {
	for s := Site(0); s < numSites; s++ {
		if siteNames[s] == name {
			return s, nil
		}
	}
	known := make([]string, 0, numSites)
	for _, n := range siteNames {
		known = append(known, n)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("faults: unknown site %q (known: %s, or \"all\")", name, strings.Join(known, ", "))
}
