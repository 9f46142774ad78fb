package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/serve"
)

// Isolated cross-checks: single-threaded timings of one layer on its own,
// printed beside the traced self-time of the layer they explain.

// timeLoop calls f in rounds until budget has passed (at least minCalls
// calls) and returns the mean wall time per call.
func timeLoop(budget time.Duration, minCalls int, f func()) time.Duration {
	var (
		calls int
		spent time.Duration
	)
	for calls < minCalls || spent < budget {
		t0 := time.Now()
		for i := 0; i < minCalls; i++ {
			f()
		}
		spent += time.Since(t0)
		calls += minCalls
	}
	return spent / time.Duration(calls)
}

// trainChecks are the cross-checks of a training workload.
type trainChecks struct {
	metrics    map[string]metric
	baseMS     float64
	rlMS       float64
	prefix     string
	updateNote string
}

// evalNote compares the traced evaluation time with envs paired episodes
// timed alone.
func (x trainChecks) evalNote(envs float64) string {
	return fmt.Sprintf("xcheck: %.0f envs x (%s.baseline_episode_ms %.3f + %s.rl_episode_ms %.3f) = %.4f s single-threaded",
		envs, x.prefix, x.baseMS, x.prefix, x.rlMS, envs*(x.baseMS+x.rlMS)/1e3)
}

// trainCrossChecks times, on fresh instances from the workload's space, one
// episode of the use case's baseline and one of the trained policy, and one
// batched forward and backward pass of a network shaped like the policy.
func trainCrossChecks(uc string, h core.Harness, seed int64, budget time.Duration) trainChecks {
	rng := rand.New(rand.NewSource(seed))
	x := trainChecks{metrics: map[string]metric{}, prefix: uc}
	var sizes []int
	switch hh := h.(type) {
	case *core.ABRHarness:
		var insts []*abr.Instance
		for len(insts) < 16 {
			if in, err := abr.NewInstance(hh.Space().Sample(rng), nil, rng); err == nil {
				insts = append(insts, in)
			}
		}
		i := 0
		next := func() *abr.Instance { i++; return insts[i%len(insts)] }
		x.baseMS = ms(timeLoop(budget/3, len(insts), func() { next().Evaluate(hh.NewBaseline()) }))
		x.rlMS = ms(timeLoop(budget/3, len(insts), func() { next().Evaluate(&abr.AgentPolicy{Agent: hh.Agent}) }))
		sizes = []int{abr.ObsSize, 64, 32, len(abr.DefaultBitratesKbps)}
	case *core.CCHarness:
		var insts []*cc.Instance
		for len(insts) < 16 {
			if in, err := cc.NewInstance(hh.Space().Sample(rng), nil, rng); err == nil {
				insts = append(insts, in)
			}
		}
		i := 0
		next := func() *cc.Instance { i++; return insts[i%len(insts)] }
		noise := func() *rand.Rand { return rand.New(rand.NewSource(int64(i))) }
		x.baseMS = ms(timeLoop(budget/3, len(insts), func() { next().Evaluate(hh.NewBaseline(), noise()) }))
		x.rlMS = ms(timeLoop(budget/3, len(insts), func() { next().Evaluate(&cc.AgentSender{Agent: hh.Agent}, noise()) }))
		sizes = []int{cc.ObsSize, 32, 16, 1}
	}
	x.metrics[uc+".baseline_episode_ms"] = metric{x.baseMS, "ms"}
	x.metrics[uc+".rl_episode_ms"] = metric{x.rlMS, "ms"}

	const batch = 64
	m := nn.MustMLP(rng, nn.Tanh, sizes...)
	in := make([]float64, batch*sizes[0])
	for i := range in {
		in[i] = rng.Float64()
	}
	out := sizes[len(sizes)-1]
	gradOut := make([]float64, batch*out)
	for i := range gradOut {
		gradOut[i] = rng.NormFloat64() / batch
	}
	s := m.NewScratch(batch)
	grads := m.NewGrads()
	fwd := us(timeLoop(budget/6, 100, func() { m.ForwardBatch(s, in, batch) }))
	bwd := us(timeLoop(budget/6, 100, func() {
		m.ForwardBatchCache(s, in, batch)
		m.BackwardBatch(s, gradOut, grads)
	})) - fwd
	x.metrics["nn.forward_batch_us"] = metric{fwd, "us"}
	x.metrics["nn.backward_batch_us"] = metric{bwd, "us"}
	x.updateNote = fmt.Sprintf("xcheck: batch of %d rows, policy-shaped net: nn.forward_batch_us %.2f, nn.backward_batch_us %.2f", batch, fwd, bwd)
	return x
}

// serveChecks are the cross-checks of a serving workload.
type serveChecks struct {
	modelDecideUS, forwardUS      float64
	byNameNS, handleNS, observeNS float64
}

func (x serveChecks) set(r *result) {
	r.set("serve.model_decide_us", x.modelDecideUS, "us")
	r.set("nn.forward_us", x.forwardUS, "us")
	r.set("metrics.counter_by_name_ns", x.byNameNS, "ns")
	r.set("metrics.counter_handle_ns", x.handleNS, "ns")
	r.set("metrics.histogram_observe_ns", x.observeNS, "ns")
}

// serveCrossChecks times Model.Decide on the served model, a single-row
// forward pass of a network shaped like its policy, and the metrics
// registry operations the decide path performs.
func serveCrossChecks(m *serve.Model, pool [][]float64, seed int64, budget time.Duration) (serveChecks, error) {
	var x serveChecks
	i := 0
	var derr error
	x.modelDecideUS = us(timeLoop(budget/3, 1000, func() {
		i++
		if _, err := m.Decide(pool[i%len(pool)]); err != nil {
			derr = err
		}
	}))
	if derr != nil {
		return x, derr
	}
	net := nn.MustMLP(rand.New(rand.NewSource(seed)), nn.Tanh, abr.ObsSize, 64, 32, len(abr.DefaultBitratesKbps))
	x.forwardUS = us(timeLoop(budget/3, 1000, func() { i++; net.Forward(pool[i%len(pool)]) }))

	reg := metrics.NewRegistry()
	for _, name := range []string{serve.MetricDecisions, serve.MetricShed, serve.MetricDecideErrors, serve.MetricFallbacks} {
		reg.Counter(name)
	}
	c := reg.Counter(serve.MetricDecisions)
	h := reg.Histogram(serve.MetricDecideSeconds)
	x.byNameNS = ns(timeLoop(budget/9, 10000, func() { reg.Counter(serve.MetricDecisions).Inc() }))
	x.handleNS = ns(timeLoop(budget/9, 10000, func() { c.Inc() }))
	x.observeNS = ns(timeLoop(budget/9, 10000, func() { h.Observe(3e-6) }))
	return x, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }
