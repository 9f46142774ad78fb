package rl

import (
	"math/rand"

	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/par"
)

// A multi-step update (PPO: epochs x minibatches of optimizer steps) is two
// optimisation chains that share no written state. The policy chain owns
// the policy net, the head's extra parameters (the Gaussian log-std) and
// their optimizers; the value chain owns the value net and its optimizer.
// Both only read the batch, the advantages, the returns and the shuffled
// row ids. runLanes runs them as two lanes, each with its own gather buffer,
// shard pass and running stats, so each chain takes exactly the steps, in
// exactly the order, of the one-goroutine loop. Only the guard's veto
// couples them (see DESIGN.md "Update lanes").

// lane is the workspace of one chain: lane 0 runs the policy chain, lane 1
// the value chain.
type lane struct {
	pass        shardPass   // the minibatch in flight; pass.obs is the lane's gather buffer
	stats, mark UpdateStats // running stats, and their value before the minibatch in flight
	steps       int         // optimizer steps taken
}

// rollback undoes the stats of a vetoed minibatch, so the reported averages
// cover only the minibatches that actually stepped.
func (l *lane) rollback() {
	l.stats = l.mark
	l.stats.Skipped = true
}

// shuffle draws every epoch's permutation of an n-row batch from rng before
// the lanes start, into perm: epoch e shuffles epoch e-1's order, which is
// the stream a shuffle per epoch would draw. It returns the number of
// minibatch steps.
func (c *agent[A]) shuffle(n, epochs int, rng *rand.Rand) int {
	c.perm = grow(c.perm, epochs*n)
	c.permN = n
	for i := 0; i < n; i++ {
		c.perm[i] = i
	}
	for e := 0; e < epochs; e++ {
		idx := c.perm[e*n : (e+1)*n]
		if e > 0 {
			copy(idx, c.perm[(e-1)*n:e*n])
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	mb := c.passRows(n)
	return epochs * ((n + mb - 1) / mb)
}

// stepRows returns the row ids of minibatch step m.
func (c *agent[A]) stepRows(m int) []int {
	n := c.permN
	mb := c.passRows(n)
	per := (n + mb - 1) / mb
	start := (m % per) * mb
	end := min(start+mb, n)
	epoch := c.perm[(m/per)*n : (m/per+1)*n]
	return epoch[start:end]
}

// gather points lane l's pass at rows and copies their observations into
// the lane's gather buffer.
func (c *agent[A]) gather(l *lane, rows []int) {
	p := &l.pass
	d := c.policy.InSize()
	p.rows, p.n = rows, len(rows)
	p.obs = grow(p.obs, p.n*d)
	for r, i := range rows {
		copy(p.obs[r*d:(r+1)*d], p.batch.Transitions[i].Obs)
	}
}

// valueGrads is the value chain's half of minibatch step m.
func (c *agent[A]) valueGrads(m int) {
	l := &c.lanes[1]
	c.gather(l, c.stepRows(m))
	l.mark = l.stats
	c.valuePass(&l.pass, &l.stats.ValueLoss)
}

// valueStep clips and applies the value gradient of the minibatch in
// flight, or rolls it back on a veto.
func (c *agent[A]) valueStep(ok bool) {
	l := &c.lanes[1]
	if !ok {
		l.rollback()
		return
	}
	c.clipValue()
	c.vOpt.Step(c.value, c.vGrads)
	l.steps++
}

// verdict decides whether the minibatch step in flight may apply. With no
// guard it always may, and the lanes never need to meet; an armed guard
// sees both lanes' pre-clip norms, losses and finiteness, so it is called
// only where both halves of the step are done and neither has stepped.
func (a *GaussianAgent) verdict() bool {
	if !a.Guard.Enabled() {
		return true
	}
	pl, vl := &a.lanes[0], &a.lanes[1]
	return a.check(guard.UpdateObs{
		PolicyLoss:   pl.stats.PolicyLoss - pl.mark.PolicyLoss,
		ValueLoss:    vl.stats.ValueLoss - vl.mark.ValueLoss,
		Entropy:      gaussianEntropy(a.stdBuf),
		ParamsFinite: allFinite(a.sGrads),
	}, pl.pass.n)
}

// runLanes runs the steps minibatch steps of a PPO update over batch as
// the policy lane and the core's value lane, and returns the merged stats
// and the number of optimizer steps taken. Below two workers the lanes
// interleave step by step on the caller. From two up they run on two
// workers, once per update: free-running with no guard, and meeting at a
// barrier before every apply with one, so a veto still skips both
// halves of a step. The results are the same floats on every path.
// rl/kernel_seconds times the lanes.
func (a *GaussianAgent) runLanes(batch *Batch, adv, returns []float64, steps int) (UpdateStats, int) {
	for i := range a.lanes {
		l := &a.lanes[i]
		l.pass = shardPass{batch: batch, adv: adv, returns: returns, obs: l.pass.obs}
		l.stats, l.steps = UpdateStats{}, 0
	}
	kt := a.Metrics.StartTimer("rl/kernel_seconds")
	if workers(a.UpdateWorkers) < 2 {
		for m := 0; m < steps; m++ {
			a.policyGrads(m)
			a.valueGrads(m)
			ok := a.verdict()
			a.policyStep(ok)
			a.valueStep(ok)
		}
	} else {
		a.runLanesParallel(steps)
	}
	kt.Stop()
	stats := a.lanes[0].stats
	stats.ValueLoss = a.lanes[1].stats.ValueLoss
	return stats, a.lanes[0].steps
}

// runLanesParallel runs the two lanes on two workers. With a guard armed,
// the value lane reports each step's gradient through ready and waits for
// the policy lane's verdict on verdicts. Each lane closes its channel when it returns,
// so a panic in one lane releases the other instead of deadlocking it and
// par.ForN re-raises the panic.
func (a *GaussianAgent) runLanesParallel(steps int) {
	barrier := a.Guard.Enabled()
	ready, verdicts := make(chan struct{}, 1), make(chan bool, 1)
	par.ForN(2, 2, func(li int) {
		if li == 0 {
			defer close(verdicts)
			for m := 0; m < steps; m++ {
				a.policyGrads(m)
				ok := true
				if barrier {
					if _, alive := <-ready; !alive {
						return
					}
					ok = a.verdict()
					verdicts <- ok
				}
				a.policyStep(ok)
			}
			return
		}
		defer close(ready)
		for m := 0; m < steps; m++ {
			a.valueGrads(m)
			ok := true
			if barrier {
				ready <- struct{}{}
				var alive bool
				if ok, alive = <-verdicts; !alive {
					return
				}
			}
			a.valueStep(ok)
		}
	})
}
