package rl

import (
	"math/rand"

	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/par"
)

// An update is steps optimizer steps of two optimisation chains that share
// no written state. The policy chain owns the policy net, the head's extra
// parameters (the Gaussian log-std) and their optimizers; the value chain
// owns the value net and its optimizer. Both only read the batch, the
// advantages, the returns and each step's rows. A2C is the one-step case:
// its rows are the whole batch in order, replayed from the rollout's
// activation caches. PPO takes Epochs passes of shuffled minibatches, each
// gathered into the lane's own buffer. runLanes runs the chains as two
// lanes, each with its own shard pass and running stats, so each chain
// takes exactly the steps, in exactly the order, of the one-goroutine loop.
// Only the guard's veto couples them (see DESIGN.md "Update lanes").

// lane is the workspace of one chain: lane 0 runs the policy chain, lane 1
// the value chain.
type lane struct {
	pass        shardPass   // the step in flight; pass.obs is the lane's gather buffer
	stats, mark UpdateStats // running stats, and their value before the step in flight
	steps       int         // optimizer steps taken
}

// rollback undoes the stats of a vetoed step, so the reported averages
// cover only the steps that actually applied.
func (l *lane) rollback() {
	l.stats = l.mark
	l.stats.Skipped = true
}

// update is the one update driver behind both heads' Update. A2C takes one
// step over the whole batch, replaying its rollout activations; PPO draws
// every epoch's shuffle from rng up front and takes a step per minibatch.
// The steps run as the two lanes, the stats average over the steps that
// applied, and the head finishes them before the update is recorded.
func (c *agent[A]) update(b *Batch, rng *rand.Rand) UpdateStats {
	n := len(b.Transitions)
	if n == 0 {
		return UpdateStats{}
	}
	adv, returns := c.advantages(b)
	c.Reserve(n)
	p := shardPass{batch: b, adv: adv, returns: returns}
	steps := 1
	if c.replay {
		p.n = n
		p.pc, p.vc = c.replayCaches(b)
	} else {
		steps = c.shuffle(n, max(1, c.epochs), rng)
	}
	stats, taken := c.runLanes(p, steps)
	if taken > 0 {
		k := float64(taken)
		stats.PolicyLoss /= k
		stats.ValueLoss /= k
		stats.Entropy /= k
		stats.KL /= k
		stats.ClipFrac /= k
		stats.GradNorm /= k
	}
	stats, extra := c.head.finish(stats)
	c.recordUpdate(stats, n, extra...)
	return stats
}

// replayCaches returns b's rollout activation caches. A batch that carries
// none for the current parameters (a hand-built batch, a second Update on
// one batch) first runs both networks over its observations into the
// agent's merged caches: the rows collection would have recorded, bit for
// bit.
func (c *agent[A]) replayCaches(b *Batch) (pc, vc *nn.BatchCache) {
	if c.replayable(b) {
		return b.pCache, b.vCache
	}
	n, d := len(b.Transitions), c.policy.InSize()
	c.obsBuf = grow(c.obsBuf, n*d)
	for i := range b.Transitions {
		copy(c.obsBuf[i*d:(i+1)*d], b.Transitions[i].Obs)
	}
	pc, vc = c.mergedCaches(n)
	c.policy.ForwardBatchAppend(pc, c.obsBuf, n)
	c.value.ForwardBatchAppend(vc, c.obsBuf, n)
	return pc, vc
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

// gather points lane l's pass at the rows of minibatch step m and copies
// their observations into the lane's gather buffer. A replayed step keeps
// the whole batch and its caches.
func (c *agent[A]) gather(l *lane, m int) {
	if c.replay {
		return
	}
	p := &l.pass
	d := c.policy.InSize()
	p.rows = c.stepRows(m)
	p.n = len(p.rows)
	p.obs = grow(p.obs, p.n*d)
	for r, i := range p.rows {
		copy(p.obs[r*d:(r+1)*d], p.batch.Transitions[i].Obs)
	}
}

// policyGrads is the policy lane's half of step m: the head readies the
// step, then the policy gradient (and the head's aux gradient) is computed
// and the GradPoison site may fire on it.
func (c *agent[A]) policyGrads(m int) {
	l := &c.lanes[0]
	c.gather(l, m)
	l.mark = l.stats
	c.policyPass(&l.pass, &l.stats, c.head.startStep())
	c.poison()
}

// valueGrads is the value lane's half of step m.
func (c *agent[A]) valueGrads(m int) {
	l := &c.lanes[1]
	c.gather(l, m)
	l.mark = l.stats
	c.valuePass(&l.pass, &l.stats.ValueLoss)
}

// verdict decides whether the step in flight may apply. With no guard it
// always may, and the lanes never need to meet; an armed guard sees both
// lanes' pre-clip norms, losses and finiteness, and the head's entropy, so
// it is called only where both halves of the step are done and neither has
// stepped.
func (c *agent[A]) verdict() bool {
	if !c.Guard.Enabled() {
		return true
	}
	pl, vl := &c.lanes[0], &c.lanes[1]
	h, finite := c.head.health(pl)
	return c.check(guard.UpdateObs{
		PolicyLoss:   pl.stats.PolicyLoss - pl.mark.PolicyLoss,
		ValueLoss:    vl.stats.ValueLoss - vl.mark.ValueLoss,
		Entropy:      h,
		ParamsFinite: finite,
	}, pl.pass.n)
}

// policyStep clips and applies the policy gradient of the step in flight,
// counts the optimizer step and steps the head's own parameters; on a veto
// it rolls the step back instead.
func (c *agent[A]) policyStep(ok bool) {
	l := &c.lanes[0]
	if !ok {
		l.rollback()
		return
	}
	l.stats.GradNorm += c.clipPolicy()
	c.pOpt.Step(c.policy, c.pGrads)
	c.paramsVersion++
	c.head.stepExtra()
	l.steps++
}

// valueStep clips and applies the value gradient of the step in flight, or
// rolls it back on a veto.
func (c *agent[A]) valueStep(ok bool) {
	l := &c.lanes[1]
	if !ok {
		l.rollback()
		return
	}
	if c.clipNorm > 0 {
		c.vGrads.ClipGlobalNorm(c.clipNorm)
	}
	c.vOpt.Step(c.value, c.vGrads)
	l.steps++
}

// runLanes runs the steps steps of an update as the policy lane and the
// value lane, each starting from pass p, and returns the merged stats and
// the number of optimizer steps taken. Below two workers the lanes
// interleave step by step on the caller. From two up they run on two
// workers, once per update: free-running with no guard, and meeting at a
// barrier before every apply with one, so a veto still skips both halves
// of a step. The results are the same floats on every path.
// rl/kernel_seconds times the lanes.
func (c *agent[A]) runLanes(p shardPass, steps int) (UpdateStats, int) {
	for i := range c.lanes {
		l := &c.lanes[i]
		obs := l.pass.obs
		l.pass = p
		l.pass.obs = obs
		l.stats, l.steps = UpdateStats{}, 0
	}
	kt := c.Metrics.StartTimer("rl/kernel_seconds")
	if workers(c.UpdateWorkers) < 2 {
		for m := 0; m < steps; m++ {
			c.policyGrads(m)
			c.valueGrads(m)
			ok := c.verdict()
			c.policyStep(ok)
			c.valueStep(ok)
		}
	} else {
		c.runLanesParallel(steps)
	}
	kt.Stop()
	stats := c.lanes[0].stats
	stats.ValueLoss = c.lanes[1].stats.ValueLoss
	return stats, c.lanes[0].steps
}

// runLanesParallel runs the two lanes on two workers. With a guard armed,
// the value lane reports each step's gradient through ready and waits for
// the policy lane's verdict on verdicts. Each lane closes its channel when
// it returns, so a panic in one lane releases the other instead of
// deadlocking it and par.ForN re-raises the panic.
func (c *agent[A]) runLanesParallel(steps int) {
	barrier := c.Guard.Enabled()
	ready, verdicts := make(chan struct{}, 1), make(chan bool, 1)
	par.ForN(2, 2, func(li int) {
		if li == 0 {
			defer close(verdicts)
			for m := 0; m < steps; m++ {
				c.policyGrads(m)
				ok := true
				if barrier {
					if _, alive := <-ready; !alive {
						return
					}
					ok = c.verdict()
					verdicts <- ok
				}
				c.policyStep(ok)
			}
			return
		}
		defer close(ready)
		for m := 0; m < steps; m++ {
			c.valueGrads(m)
			ok := true
			if barrier {
				ready <- struct{}{}
				var alive bool
				if ok, alive = <-verdicts; !alive {
					return
				}
			}
			c.valueStep(ok)
		}
	})
}
