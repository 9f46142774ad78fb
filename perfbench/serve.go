package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/serve"
)

// Serving set-up sizes.
const (
	poolSize      = 4096        // distinct real observations the callers cycle
	serveDeadline = time.Second // per-request budget, genet-serve's default
	accessLogMax  = 16 << 20    // access-log rotation bound per file
	inprocBlock   = 50000       // decisions per measured in-process block
	warmupFor     = 500 * time.Millisecond
)

// serveSetup is one policy server in genet-serve's production
// configuration — metrics registry, admission gate, per-request deadline,
// and an observer with an access log, an SLO tracker and sampled spans —
// serving model A of two ABR models A and B written to disk, plus the pool
// of observations callers cycle and every decision both models make on it.
type serveSetup struct {
	dir          string
	pathA, pathB string
	check        *serve.Model // a separately loaded copy of A, for cross-checks
	pool         [][]float64
	want         [2][]int // want[0] from A, want[1] from B, per pool index
	srv          *serve.Server
	alog         *serve.AccessLog
	rec          *obs.Recorder
}

// newServeSetup builds a server whose observer records spans for every
// sampleEvery-th request into a ring of recCap spans (0 = default size).
func newServeSetup(dir string, seed int64, sampleEvery, recCap int) (*serveSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &serveSetup{dir: dir, pathA: filepath.Join(dir, "a.model"), pathB: filepath.Join(dir, "b.model")}
	cfg := rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps))
	var models [2]*serve.Model
	for i, p := range []string{s.pathA, s.pathB} {
		agent, err := rl.NewDiscreteAgent(cfg, rand.New(rand.NewSource(seed*2+int64(i))))
		if err != nil {
			return nil, err
		}
		if err := ckpt.AtomicWriteFile(p, agent.Save); err != nil {
			return nil, err
		}
		if models[i], err = serve.LoadModel("abr", p); err != nil {
			return nil, err
		}
	}
	s.pool = obsPool(seed, poolSize)
	for i, m := range models {
		s.want[i] = make([]int, len(s.pool))
		for j, o := range s.pool {
			d, err := m.Decide(o)
			if err != nil {
				return nil, err
			}
			s.want[i][j] = d.Action
		}
	}
	s.check = models[0]
	served, err := serve.LoadModel("abr", s.pathA)
	if err != nil {
		return nil, err
	}
	if s.srv, err = serve.New("abr", served, metrics.NewRegistry()); err != nil {
		return nil, err
	}
	s.srv.Configure(serve.RobustnessOptions{MaxInflight: 256, ShedWait: 5 * time.Millisecond, Deadline: serveDeadline})
	if s.alog, err = serve.OpenAccessLog(filepath.Join(dir, "access.jsonl"), accessLogMax, 1); err != nil {
		return nil, err
	}
	s.rec = obs.NewRecorder(recCap)
	s.srv.Instrument(serve.NewObserver(serve.ObserverConfig{
		Recorder:    s.rec,
		AccessLog:   s.alog,
		SLO:         serve.NewSLOTracker(serve.SLOConfig{}),
		SampleEvery: sampleEvery,
		Seed:        uint64(seed),
	}))
	return s, nil
}

func (s *serveSetup) close() {
	s.alog.Close()
	os.RemoveAll(s.dir)
}

// obsPool collects n real ABR observations by stepping seeded environments
// from the RL3 space with seeded random bitrate choices.
func obsPool(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]float64, 0, n)
	for len(pool) < n {
		e := abr.NewRLEnv(abr.GenFromConfig(env.ABRSpace(env.RL3).Sample(rng)))
		o := e.Reset(rng)
		for step := 0; step < 64 && len(pool) < n; step++ {
			pool = append(pool, append([]float64(nil), o...))
			var done bool
			o, _, done = e.Step(rng.Intn(len(abr.DefaultBitratesKbps)))
			if done {
				break
			}
		}
	}
	return pool
}

// correct reports whether d is the greedy answer, on pool observation idx,
// of the model its version names: version 1 is A, and swaps alternate B, A.
func (s *serveSetup) correct(idx int, d serve.Decision) bool {
	if d.Fallback || d.ModelVersion == 0 {
		return false
	}
	return d.Action == s.want[(d.ModelVersion+1)%2][idx]
}

// tally counts request outcomes as the driver saw them.
type tally struct {
	ok, shed, timeout, errs int64 // one class per sent request
	wrong                   int64 // ok responses whose decision was not the model's
}

func (t *tally) add(o tally) {
	t.ok += o.ok
	t.shed += o.shed
	t.timeout += o.timeout
	t.errs += o.errs
	t.wrong += o.wrong
}

func (t *tally) sent() int64 { return t.ok + t.shed + t.timeout + t.errs }

// failed counts the operations that did not succeed correctly.
func (t *tally) failed() int64 { return t.sent() - t.ok + t.wrong }

// count classifies one finished request.
func (t *tally) count(s *serveSetup, idx int, d serve.Decision, err error) bool {
	switch {
	case err == nil:
		t.ok++
		if !s.correct(idx, d) {
			t.wrong++
			return false
		}
		return true
	case errors.Is(err, serve.ErrShed):
		t.shed++
	case errors.Is(err, context.DeadlineExceeded):
		t.timeout++
	default:
		t.errs++
	}
	return false
}

// reconcile compares the driver's outcome counts, over everything it ever
// sent to this server, with the server's own counters and access log, and
// returns the total disagreement (0 when they reconcile exactly).
func (s *serveSetup) reconcile(t tally) int64 {
	c := s.srv.Snapshot().Counters
	diff := func(a, b int64) int64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	d := diff(c[serve.MetricDecisions], t.ok) +
		diff(c[serve.MetricShed], t.shed) +
		diff(c[serve.MetricDeadlineExceeded], t.timeout) +
		diff(c[serve.MetricDecideErrors]+c[serve.MetricBadRequests], t.errs) +
		diff(s.alog.Lines(), t.sent())
	if d > 0 {
		fmt.Printf("   counters do not reconcile: server %v, driver %+v, access log %d lines\n", c, t, s.alog.Lines())
	}
	return d
}

// accessLogBytesPerLine is the mean size of the access-log lines still on
// disk, across the live file and its rotated predecessor.
func (s *serveSetup) accessLogBytesPerLine() (float64, error) {
	if err := s.alog.Sync(); err != nil {
		return 0, err
	}
	var size, lines int64
	for _, p := range []string{filepath.Join(s.dir, "access.jsonl"), filepath.Join(s.dir, "access.jsonl.1")} {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		} else if err != nil {
			return 0, err
		}
		size += int64(len(data))
		for _, b := range data {
			if b == '\n' {
				lines++
			}
		}
	}
	if lines == 0 {
		return 0, fmt.Errorf("access log is empty")
	}
	return float64(size) / float64(lines), nil
}

// closedLoop runs loadWorkers in-process callers, each making n/loadWorkers
// decisions back to back through DecideCtx under a per-request deadline,
// and checks every answer. It records each call's latency into hist, when
// non-nil, and returns the outcomes and the wall time of the block.
func (s *serveSetup) closedLoop(n, from int, hist *latHist) (tally, time.Duration) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		total  tally
		merged latHist
	)
	start := time.Now()
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				t tally
				h latHist
			)
			for i := w; i < n; i += loadWorkers {
				idx := (from + i) % len(s.pool)
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
				d, err := s.srv.DecideCtx(ctx, s.pool[idx])
				cancel()
				h.record(time.Since(t0))
				t.count(s, idx, d, err)
			}
			mu.Lock()
			total.add(t)
			merged.merge(&h)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if hist != nil {
		hist.merge(&merged)
	}
	return total, wall
}

// setupReps is how many times the serving workload builds its set-up; the
// reported setup_s is the median, and the last one is used for the run.
const setupReps = 9

// timedSetup builds the server setupReps times, each after a GC, closing
// all but the last, and returns the last with the median set-up time.
func timedSetup(c config) (*serveSetup, float64, error) {
	var (
		last  *serveSetup
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := newServeSetup(filepath.Join(c.dir, fmt.Sprint("setup", i)), c.seed, serve.DefaultSampleEvery, 0)
		if err != nil {
			if last != nil {
				last.close()
			}
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if last != nil {
			last.close()
		}
		last = s
	}
	return last, median(times), nil
}

// inprocE2E measures closed-loop blocks of decisions for the budget; each
// figure is the median over blocks, so a brief stall elsewhere on the host
// moves at most a few blocks.
func inprocE2E(c config) (*result, error) {
	s, setupS, err := timedSetup(c)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := &result{}
	var all tally
	for t0 := time.Now(); time.Since(t0) < warmupFor; {
		t, _ := s.closedLoop(inprocBlock/10, 0, nil)
		all.add(t)
	}
	var walls, rates, p50s []float64
	deadline := time.Now().Add(c.budget)
	for len(walls) == 0 || time.Now().Before(deadline) {
		var hist latHist
		t, wall := s.closedLoop(inprocBlock, len(walls)*inprocBlock, &hist)
		all.add(t)
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(t.ok)/wall.Seconds())
		p50s = append(p50s, hist.quantileUS(0.50))
	}
	res.Attempted = all.sent()
	res.fail(all.failed() + s.reconcile(all))
	res.set("setup_s", setupS, "s")
	res.set("run_s", median(walls), "s")
	res.set("latency_p50_us", median(p50s), "us")
	res.set("throughput_per_s", median(rates), "1/s")
	return res, nil
}

// spanMeansUS returns the mean duration per request, in microseconds, of
// each serving span name, over reqs requests.
func spanMeansUS(rec *obs.Recorder, reqs int64) map[string]float64 {
	out := map[string]float64{serve.SpanAdmit: 0, serve.SpanDecide: 0, serve.SpanFallback: 0}
	for _, e := range rec.Events() {
		if e.Phase == "X" {
			out[e.Name] += e.Dur
		}
	}
	for k := range out {
		out[k] /= float64(reqs)
	}
	return out
}

// allocsDuring returns the allocations and bytes allocated per request
// while f serves reqs requests.
func allocsDuring(f func() int64) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	reqs := f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reqs), float64(b.TotalAlloc-a.TotalAlloc) / float64(reqs)
}

// inprocTrace alternates, for the budget, a block of decisions on a server
// in the production configuration (spans sampled 1 in 16) with a block on
// a fresh server that records spans for every request into a ring large
// enough to drop none. Latencies are per-call means over each kind of
// block; span self-times are per-request means over the traced blocks.
func inprocTrace(c config) (*result, *node, error) {
	res := &result{Metrics: map[string]metric{}}
	var (
		plain, traced latHist
		spans         = map[string]float64{}
		counts        = map[string]int64{}
		passes        int
		allocs, bytes float64
		logBytes      float64
	)
	deadline := time.Now().Add(c.budget * 2 / 3)
	for passes == 0 || time.Now().Before(deadline) {
		dir := filepath.Join(c.dir, fmt.Sprint("pass", passes))
		u, err := newServeSetup(filepath.Join(dir, "plain"), c.seed, serve.DefaultSampleEvery, 0)
		if err != nil {
			return nil, nil, err
		}
		warm, _ := u.closedLoop(inprocBlock/5, 0, nil)
		var t tally
		a, b := allocsDuring(func() int64 {
			t, _ = u.closedLoop(inprocBlock, 0, &plain)
			return t.sent()
		})
		t.add(warm)
		res.Attempted += t.sent()
		res.fail(t.failed() + u.reconcile(t))
		u.close()
		allocs += a
		bytes += b

		s, err := newServeSetup(filepath.Join(dir, "traced"), c.seed, 1, 2*inprocBlock+1024)
		if err != nil {
			return nil, nil, err
		}
		t, _ = s.closedLoop(inprocBlock, 0, &traced)
		res.Attempted += t.sent()
		res.fail(t.failed() + s.reconcile(t) + checkServeSpans(s.rec))
		for k, v := range spanMeansUS(s.rec, t.sent()) {
			spans[k] += v
		}
		for k, v := range s.srv.Snapshot().Counters {
			counts[k] += v
		}
		lb, err := s.accessLogBytesPerLine()
		s.close()
		if err != nil {
			return nil, nil, err
		}
		logBytes += lb
		passes++
	}
	n := float64(passes)
	for k := range spans {
		spans[k] /= n
	}
	s, err := newServeSetup(filepath.Join(c.dir, "xcheck"), c.seed, serve.DefaultSampleEvery, 0)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	x, err := serveCrossChecks(s.check, s.pool, c.seed, c.budget/4)
	if err != nil {
		return nil, nil, err
	}
	x.set(res)
	setServeCounts(res, counts, allocs/n, bytes/n, logBytes/n)

	mean := traced.meanUS()
	res.set("latency_mean_us", mean, "us")
	res.set("serve.admit_us", spans[serve.SpanAdmit], "us")
	res.set("serve.decide_us", spans[serve.SpanDecide], "us")
	res.set("latency_p99_us", plain.quantileUS(0.99), "us")
	res.set("trace_overhead", mean/plain.meanUS()-1, "ratio")
	root := leaf("latency_mean_us", mean, "us", fmt.Sprintf("mean DecideCtx call, %d traced blocks of %d decisions by %d callers; untraced %.3f us, p99 %.3f us",
		passes, inprocBlock, loadWorkers, plain.meanUS(), plain.quantileUS(0.99)))
	root.add(
		leaf("serve.admit_us", spans[serve.SpanAdmit], "us", "admission gate"),
		leaf("serve.decide_us", spans[serve.SpanDecide], "us", fmt.Sprintf("xcheck: serve.model_decide_us %.3f, nn.forward_us %.3f", x.modelDecideUS, x.forwardUS)),
		leaf("serve.fallback_us", spans[serve.SpanFallback], "us", "zero unless the model is quarantined"),
	)
	unattr := root.rest("unattributed_us")
	root.children[len(root.children)-1].note = fmt.Sprintf(
		"deadline context, trace minting, %.0f-byte access-log line, SLO and latency histogram; xcheck: metrics.counter_by_name_ns %.1f, metrics.histogram_observe_ns %.1f",
		logBytes/n, x.byNameNS, x.observeNS)
	res.set("unattributed_us", unattr, "us")
	return res, root, nil
}

// checkServeSpans fails the traced run when the recorder dropped spans or
// recorded no admit or decide span, and returns the failures.
func checkServeSpans(rec *obs.Recorder) int64 {
	var failed int64
	if st := rec.Stats(); st.Dropped > 0 {
		failed++
		fmt.Printf("   recorder dropped %d spans\n", st.Dropped)
	}
	seen := map[string]bool{}
	for _, e := range rec.Events() {
		seen[e.Name] = true
	}
	for _, fam := range []string{serve.SpanAdmit, serve.SpanDecide} {
		if !seen[fam] {
			failed++
			fmt.Printf("   span family %s missing\n", fam)
		}
	}
	return failed
}

// setServeCounts reports the server's outcome counters and the per-request
// allocation and access-log costs.
func setServeCounts(r *result, c map[string]int64, allocs, bytes, logBytes float64) {
	r.set("serve.allocs_per_req", allocs, "count")
	r.set("serve.bytes_per_req", bytes, "bytes")
	r.set("serve.accesslog_bytes_per_req", logBytes, "bytes")
	r.set("serve.decisions", float64(c[serve.MetricDecisions]), "count")
	r.set("serve.shed", float64(c[serve.MetricShed]), "count")
	r.set("serve.timeouts", float64(c[serve.MetricDeadlineExceeded]), "count")
	r.set("serve.fallbacks", float64(c[serve.MetricFallbacks]), "count")
	r.set("serve.errors", float64(c[serve.MetricDecideErrors]+c[serve.MetricBadRequests]), "count")
}
