package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/serve"
)

// Shape of the HTTP pass.
const (
	nominalRate  = 3000.0                 // req/s for the latency figures, well below the knee
	latencyLimit = 5 * time.Millisecond   // p99 bound a ladder rung must meet
	swapEvery    = 50 * time.Millisecond  // SwapFrom interval, alternating models B and A
	probeFor     = 100 * time.Millisecond // offered time per ladder probe window
	probeMin     = 1000                   // requests per ladder probe window, at least
	ladderLow    = 1000.0                 // lowest ladder rung, req/s
	ladderStep   = 1.04                   // ratio between rungs
	ladderRungs  = 107                    // rungs, up to ~66k req/s
	abortAfter   = 50 * time.Millisecond  // a probe stops once this much offered load waits unsent
)

// timedHandler is a timing middleware: the total time spent inside the
// wrapped handler and the number of requests it served.
type timedHandler struct {
	h     http.Handler
	total atomic.Int64
	n     atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.total.Add(int64(time.Since(t0)))
	t.n.Add(1)
}

// httpSetup is a serveSetup behind serve.NewHandler on a loopback
// httptest server, with a client limited to loadWorkers keep-alive
// connections and with retries and the circuit breaker off, so every
// failure is counted rather than retried away.
type httpSetup struct {
	*serveSetup
	ts      *httptest.Server
	timed   *timedHandler // nil unless traced
	client  *serve.Client
	all     tally // every request ever sent to this server
	swapper *swapper
}

func newHTTPSetup(dir string, seed int64, sampleEvery, recCap int, traced bool) (*httpSetup, error) {
	s, err := newServeSetup(dir, seed, sampleEvery, recCap)
	if err != nil {
		return nil, err
	}
	h := &httpSetup{serveSetup: s}
	handler := serve.NewHandler(s.srv)
	if traced {
		h.timed = &timedHandler{h: handler}
		handler = h.timed
	}
	h.ts = httptest.NewServer(handler)
	h.client = serve.NewClientSeeded(h.ts.URL, seed)
	h.client.MaxRetries = -1
	h.client.BreakerThreshold = -1
	h.client.HTTPClient = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     loadWorkers,
			MaxIdleConnsPerHost: loadWorkers,
			DisableCompression:  true,
		},
	}
	// Open the keep-alive connections before anything is timed.
	h.closedLoop(4 * loadWorkers)
	return h, nil
}

func (h *httpSetup) close() {
	h.stopSwaps()
	h.client.HTTPClient.CloseIdleConnections()
	h.ts.Close()
	h.serveSetup.close()
}

// decide sends pool observation idx and classifies the answer.
func (h *httpSetup) decide(idx int, t *tally) bool {
	d, err := h.client.DecideCtx(context.Background(), h.pool[idx])
	return t.count(h.serveSetup, idx, d, err)
}

// closedLoop sends n requests from loadWorkers senders, each waiting for
// its previous answer.
func (h *httpSetup) closedLoop(n int) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total tally
	)
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t tally
			for i := w; i < n; i += loadWorkers {
				h.decide(i%len(h.pool), &t)
			}
			mu.Lock()
			total.add(t)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	h.all.add(total)
}

// swapper hot-swaps the served model from disk at a fixed interval,
// alternating B and A, and times every swap.
type swapper struct {
	stop  chan struct{}
	done  chan struct{}
	total time.Duration
	n     int
	err   error
}

func (h *httpSetup) startSwaps() {
	sw := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	h.swapper = sw
	go func() {
		defer close(sw.done)
		tick := time.NewTicker(swapEvery)
		defer tick.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-tick.C:
			}
			path := h.pathB
			if sw.n%2 == 1 {
				path = h.pathA
			}
			t0 := time.Now()
			if err := h.srv.SwapFrom(path); err != nil && sw.err == nil {
				sw.err = err
			}
			sw.total += time.Since(t0)
			sw.n++
		}
	}()
}

// stopSwaps stops the swapper and waits for it; safe to call twice.
func (h *httpSetup) stopSwaps() {
	if sw := h.swapper; sw != nil {
		select {
		case <-sw.stop:
		default:
			close(sw.stop)
		}
		<-sw.done
	}
}

// openLoopStats is the outcome of one open-loop run at a fixed rate.
type openLoopStats struct {
	lat       latHist // from release into the send queue, successful requests
	lateness  latHist // release minus due
	queueWait latHist // dequeue minus release
	call      latHist // client round trip
	t         tally
	failed    int64
	offered   int
	sent      int64
	drain     time.Duration // last completion minus last due time
	aborted   bool
}

// openLoop offers n requests with Poisson arrivals at rate through
// loadWorkers senders. A generator sleeps until the next due time and then
// releases every request already due into the send queue — it never spins,
// so it leaves both CPUs to the client and server. Latency runs from release
// to answer; release minus due is the generator's lateness. With abortAt >
// 0 the run stops offering once that many released requests wait unsent,
// which already rules out meeting the latency limit.
func (h *httpSetup) openLoop(rate float64, n int, seed int64, abortAt int) (*openLoopStats, error) {
	sched, err := serve.ArrivalSchedule(serve.ArrivalPoisson, rate, n, seed)
	if err != nil {
		return nil, err
	}
	type job struct {
		idx          int
		due, release time.Time
	}
	// Sized to every request of the run, so the generator never blocks on
	// a slow sender and its lateness measures only its own timer.
	queue := make(chan job, n)
	st := &openLoopStats{offered: n}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		aborted atomic.Bool
		last    time.Time
	)
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				s   openLoopStats
				end time.Time
			)
			for j := range queue {
				if aborted.Load() {
					continue
				}
				idx := j.idx % len(h.pool)
				t0 := time.Now()
				d, err := h.client.DecideCtx(context.Background(), h.pool[idx])
				t1 := time.Now()
				ok := s.t.count(h.serveSetup, idx, d, err)
				end = time.Now()
				s.queueWait.record(t0.Sub(j.release))
				s.lateness.record(j.release.Sub(j.due))
				s.call.record(t1.Sub(t0))
				if ok {
					s.lat.record(end.Sub(j.release))
				}
			}
			mu.Lock()
			st.lat.merge(&s.lat)
			st.lateness.merge(&s.lateness)
			st.queueWait.merge(&s.queueWait)
			st.call.merge(&s.call)
			st.t.add(s.t)
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}()
	}
	start := time.Now()
	for i := 0; i < n; {
		now := time.Now()
		if due := start.Add(sched[i]); now.Before(due) {
			time.Sleep(due.Sub(now))
			now = time.Now()
		}
		for ; i < n && !start.Add(sched[i]).After(now); i++ {
			queue <- job{idx: i, due: start.Add(sched[i]), release: now}
		}
		if abortAt > 0 && len(queue) > abortAt {
			aborted.Store(true)
			break
		}
	}
	close(queue)
	wg.Wait()
	h.all.add(st.t)
	st.aborted = aborted.Load()
	st.sent = st.t.sent()
	st.failed = st.t.failed()
	st.drain = last.Sub(start.Add(sched[n-1]))
	return st, nil
}

// meets reports whether a run at rate held the workload's limits: p99
// latency within the limit with every failed request counted as over it,
// at least 99.9% of offered requests answered correctly, and a backlog
// that drained within the limit after the last arrival.
func (st *openLoopStats) meets() bool {
	if st.aborted || float64(st.failed) > 0.001*float64(st.offered) {
		return false
	}
	// Failures count as slower than any success, so the p99 over all
	// offered requests is the success quantile at a higher rank.
	q := 0.99 * float64(st.offered) / float64(st.lat.n)
	if q >= 1 {
		return false
	}
	return st.lat.quantileUS(q) <= us(latencyLimit) && st.drain <= latencyLimit
}

// probe reports whether rate meets the limits in at least two of three
// back-to-back windows of at least probeMin requests, so one brief stall
// elsewhere on the host does not decide a rung.
func (h *httpSetup) probe(rate float64, seed int64) (bool, error) {
	n := max(probeMin, int(rate*probeFor.Seconds()))
	passed := 0
	for w := int64(0); w < 3 && passed < 2; w++ {
		st, err := h.openLoop(rate, n, seed+w, int(rate*abortAfter.Seconds())+64)
		if err != nil {
			return false, err
		}
		if st.meets() {
			passed++
		} else if w-int64(passed) >= 1 {
			return false, nil
		}
	}
	return passed >= 2, nil
}

// maxRate binary-searches the rung ladder for the highest rate that meets
// the limits, assuming every rung below a passing one passes too.
func (h *httpSetup) maxRate(seed int64) (float64, error) {
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := h.probe(ladderLow*math.Pow(ladderStep, float64(mid)), seed+int64(mid)*3)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, fmt.Errorf("even %.0f req/s misses the latency limit", ladderLow)
	}
	return ladderLow * math.Pow(ladderStep, float64(lo)), nil
}

// httpTrace alternates, for the budget, nominal-rate open-loop runs on a
// server in the production configuration and on a fresh server that records
// spans for every request and times its handler, with models swapping
// throughout. Values are per-request means.
func httpTrace(c config) (*result, *node, error) {
	res := &result{Metrics: map[string]metric{}}
	n := int(nominalRate * (c.budget / 6).Seconds())
	var (
		plainMean, plainP99, tracedMean, queueWait, lateness, call float64
		handler, allocs, bytes, logBytes, swapMS                   float64
		spans                                                      = map[string]float64{}
		counts                                                     = map[string]int64{}
		swaps, passes                                              int
	)
	deadline := time.Now().Add(c.budget * 3 / 4)
	for passes == 0 || time.Now().Before(deadline) {
		dir := filepath.Join(c.dir, fmt.Sprint("pass", passes))
		u, err := newHTTPSetup(filepath.Join(dir, "plain"), c.seed, serve.DefaultSampleEvery, 0, false)
		if err != nil {
			return nil, nil, err
		}
		u.startSwaps()
		var st *openLoopStats
		a, b := allocsDuring(func() int64 {
			st, err = u.openLoop(nominalRate, n, c.seed+int64(passes), 0)
			if err != nil {
				return 1
			}
			return st.sent
		})
		u.stopSwaps()
		if err != nil {
			u.close()
			return nil, nil, err
		}
		res.Attempted += u.all.sent()
		res.fail(u.all.failed() + u.reconcile(u.all))
		u.close()
		plainMean += st.lat.meanUS()
		plainP99 += st.lat.quantileUS(0.99)
		allocs += a
		bytes += b

		s, err := newHTTPSetup(filepath.Join(dir, "traced"), c.seed, 1, 3*n+4096, true)
		if err != nil {
			return nil, nil, err
		}
		s.timed.total.Store(0)
		s.timed.n.Store(0)
		base := s.all
		s.startSwaps()
		st, err = s.openLoop(nominalRate, n, c.seed+int64(passes), 0)
		s.stopSwaps()
		if err != nil {
			s.close()
			return nil, nil, err
		}
		res.Attempted += s.all.sent()
		res.fail(s.all.failed() + s.reconcile(s.all) + checkServeSpans(s.rec))
		if s.swapper.err != nil {
			res.fail(1)
		}
		for k, v := range spanMeansUS(s.rec, st.sent+base.sent()) {
			spans[k] += v
		}
		for k, v := range s.srv.Snapshot().Counters {
			counts[k] += v
		}
		tracedMean += st.lat.meanUS()
		queueWait += st.queueWait.meanUS()
		lateness += st.lateness.meanUS()
		call += st.call.meanUS()
		handler += float64(s.timed.total.Load()) / float64(s.timed.n.Load()) / 1e3
		swaps += s.swapper.n
		swapMS += ms(s.swapper.total) / float64(max(s.swapper.n, 1))
		lb, err := s.accessLogBytesPerLine()
		s.close()
		if err != nil {
			return nil, nil, err
		}
		logBytes += lb
		passes++
	}
	// One ladder search on a server in the production configuration.
	l, err := newHTTPSetup(filepath.Join(c.dir, "ladder"), c.seed, serve.DefaultSampleEvery, 0, false)
	if err != nil {
		return nil, nil, err
	}
	l.startSwaps()
	maxRate, err := l.maxRate(c.seed * 1000)
	l.stopSwaps()
	if err == nil {
		res.Attempted += l.all.sent()
		res.fail(l.all.failed() + l.reconcile(l.all))
	}
	l.close()
	if err != nil {
		return nil, nil, err
	}

	p := float64(passes)
	for k := range spans {
		spans[k] /= p
	}
	plainMean, tracedMean, queueWait, lateness, call, handler = plainMean/p, tracedMean/p, queueWait/p, lateness/p, call/p, handler/p
	setServeCounts(res, counts, allocs/p, bytes/p, logBytes/p)
	codec := handler - spans[serve.SpanAdmit] - spans[serve.SpanDecide] - spans[serve.SpanFallback]
	res.set("latency_mean_us", tracedMean, "us")
	res.set("serve.admit_us", spans[serve.SpanAdmit], "us")
	res.set("serve.decide_us", spans[serve.SpanDecide], "us")
	res.set("serve.http_handler_us", handler, "us")
	res.set("serve.http_codec_us", codec, "us")
	res.set("serve.http_transport_us", call-handler, "us")
	res.set("serve.swap_ms", swapMS/p, "ms")
	res.set("serve.swaps", float64(swaps), "count")
	res.set("driver.lateness_us", lateness, "us")
	res.set("driver.queue_wait_us", queueWait, "us")
	res.set("driver.nominal_p99_us", plainP99/p, "us")
	res.set("driver.max_rate_rps", maxRate, "1/s")
	res.set("trace_overhead", tracedMean/plainMean-1, "ratio")

	root := leaf("latency_mean_us", tracedMean, "us", fmt.Sprintf("mean from release, Poisson %.0f req/s, %d traced runs of %d requests; untraced %.3f us, p99 %.1f us; %d swaps of %.3f ms; ladder max %.0f req/s",
		nominalRate, passes, n, plainMean, plainP99/p, swaps, swapMS/p, maxRate))
	hnode := leaf("serve.http_handler_us", handler, "us", "timing middleware around NewHandler")
	hnode.add(
		leaf("serve.admit_us", spans[serve.SpanAdmit], "us", ""),
		leaf("serve.decide_us", spans[serve.SpanDecide], "us", ""),
		leaf("serve.fallback_us", spans[serve.SpanFallback], "us", "zero unless the model is quarantined"),
	)
	hnode.rest("serve.http_codec_us")
	hnode.children[len(hnode.children)-1].note = "handler minus its spans: JSON decode and encode, trace header, deadline, access log"
	root.add(
		leaf("driver.queue_wait_us", queueWait, "us", fmt.Sprintf("release to send; driver.lateness_us %.3f (due to release) is not part of latency", lateness)),
		leaf("serve.http_transport_us", call-handler, "us", "client round trip minus handler: client codec, net/http, loopback"),
		hnode,
	)
	res.set("unattributed_us", root.rest("unattributed_us"), "us")
	return res, root, nil
}
