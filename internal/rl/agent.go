package rl

import (
	"math"
	"math/rand"
	"runtime"

	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
)

// Runtime is an agent's runtime-only attachments: worker caps and the
// telemetry, health and chaos hooks. None of it is learned state, so state
// streams leave it out, and code that replaces an agent with a restored one
// (checkpoint resume, guard rollback) carries it over whole.
type Runtime struct {
	// UpdateWorkers caps the goroutines an update uses (0 means
	// GOMAXPROCS). Both heads' updates run their policy and value chains
	// as two lanes (see runLanes): on two workers from a cap of 2 up, one
	// after the other on the caller at 1. The result is bit-identical for
	// every value: the shard partition is fixed (see updateShardSize),
	// each lane folds its shards in index order, and the two lanes write
	// no shared state, so workers only changes who computes what.
	UpdateWorkers int

	// RolloutWorkers caps the goroutines used for rollout collection in
	// TrainIterationVec and CollectVec (0 means GOMAXPROCS), guard and
	// faults armed or not. Bit-identical for every value: each slot owns
	// its rng and fault streams and the batched forward computes every row
	// exactly as a batch of one would, so the worker grouping only changes
	// which goroutine computes what.
	RolloutWorkers int

	// Metrics optionally receives per-update telemetry (loss, entropy, grad
	// norm) and rollout/kernel/update time splits. Nil — the default — is
	// free on the hot path: every metrics call is guarded or nil-safe, and
	// telemetry never touches rng, so enabling it cannot perturb training.
	Metrics *metrics.Registry

	// Guard optionally arms the training-health watchdog: a pre-apply
	// NaN/Inf scan with a skip-update path, rollout panic containment,
	// and rolling divergence statistics. Nil (the default) costs one nil
	// check; an armed guard with healthy updates is a pure observer and
	// keeps training bit-identical. Containment runs inside the lockstep
	// engine: a slot whose env panics in a reset or step is dropped with a
	// nil batch, and the other slots carry on.
	Guard *guard.Guard

	// Faults optionally injects deterministic faults (poisoned
	// gradients, env-step panics, corrupted observations) for chaos
	// testing. Nil disables injection at zero cost. The rollout sites wrap
	// the vectorized env (faultyVec) with streams keyed by each slot's
	// seed; Collect never injects.
	Faults *faults.Injector

	// Recorder optionally records rl/rollout and rl/update spans in the
	// flight recorder. Nil — the default — costs one nil check per span
	// and zero allocations (see obs.Recorder).
	Recorder *obs.Recorder
}

// workers resolves a worker cap: 0 means GOMAXPROCS.
func workers(limit int) int {
	if limit > 0 {
		return limit
	}
	return runtime.GOMAXPROCS(0)
}

// scalarEnv is the per-environment contract of Collect, satisfied by
// DiscreteEnv (A = int) and ContinuousEnv (A = []float64).
type scalarEnv[A any] interface {
	ObsSize() int
	Reset(rng *rand.Rand) []float64
	Step(action A) (obs []float64, reward float64, done bool)
}

// vecEnv is the slot-addressed contract of the lockstep engine, satisfied
// by DiscreteVecEnv and ContinuousVecEnv.
type vecEnv[A any] interface {
	ObsSize() int
	Width() int
	ResetSlot(i int, rng *rand.Rand, obs []float64)
	StepSlot(i int, action A, obs []float64) (reward float64, done bool)
}

// policyHead is what a learner plugs into the core.
type policyHead[A any] interface {
	// sample draws an action from the policy-output row out, using ws (one
	// row wide) as workspace, and returns it with a transition carrying
	// the action and its log-probability.
	sample(out, ws []float64, rng *rand.Rand, ar *floatArena) (A, Transition)
	// shardGrads accumulates the policy loss gradient of rows [start,end)
	// of pass p into sh; the core computes the critic half (valuePass).
	shardGrads(sh *policyShard, p *shardPass, start, end int)
	// startStep readies the head for the policy half of one update step
	// and returns the row the shards' aux rows fold into (nil: none).
	startStep() []float64
	// stepExtra steps the head's own parameters after the policy step.
	stepExtra()
	// health returns the entropy and the finiteness of the head's own
	// gradients that the guard checks for the step in flight on pl.
	health(pl *lane) (entropy float64, finite bool)
	// finish applies the head's end-of-update fix-up to s and returns the
	// head's extra rl/update telemetry fields.
	finish(s UpdateStats) (UpdateStats, []metrics.F)
}

// learner holds the hyperparameters the core reads.
type learner struct {
	lr            float64 // Adam learning rate
	gamma, lambda float64 // discount and GAE lambda
	clipNorm      float64 // global gradient clip (0 disables)
	valueCoef     float64 // weight of the critic loss in its gradient
	minibatch     int     // rows per update pass (0 = the whole batch)
	epochs        int     // passes over the batch per update (PPO)
	// replay marks a learner whose update is one step that replays the
	// rollout's recorded activations (A2C); only then are the per-slot
	// caches merged. The others gather shuffled minibatches.
	replay bool
}

// agent is the core both DiscreteAgent and GaussianAgent embed.
type agent[A any] struct {
	Runtime
	learner

	head           policyHead[A]
	policy         *nn.MLP // obs -> policy output (action logits or means)
	value          *nn.MLP // obs -> scalar V(s)
	pOpt, vOpt     *nn.Adam
	pGrads, vGrads *nn.Grads

	// paramsVersion counts optimizer steps; rollout activation caches record
	// it and an update only trusts a cache stamped with the current version.
	paramsVersion uint64

	// Update workspaces: the lanes, each lane's gradient shard, and every
	// epoch's shuffled row ids of a minibatch update, permN rows each.
	obsBuf, advBuf, retBuf []float64
	lanes                  [2]lane
	pShard                 *policyShard
	vShard                 *valueShard
	perm                   []int
	permN                  int

	// Pooled rollout state (per slot or lockstep group), the fault-site
	// wrapper and the merged batch: together they make the steady-state
	// iteration allocation-free.
	seedBuf                  []int64
	roll                     rollout[A]
	faulty                   faultyVec[A]
	merged                   Batch
	trainPCache, trainVCache *nn.BatchCache
}

// shardPass is one sharded gradient pass over n rows of batch: rows maps a
// shuffled minibatch's rows to transitions (nil: row r is transition r).
// The pass either replays the rows' activations from pc/vc or runs its
// forwards over obs, the rows' observations gathered into [n x ObsSize].
type shardPass struct {
	batch   *Batch
	adv     []float64
	returns []float64
	rows    []int
	n       int
	obs     []float64
	pc, vc  *nn.BatchCache
}

// row returns the transition index of pass row r.
func (p *shardPass) row(r int) int {
	if p.rows == nil {
		return r
	}
	return p.rows[r]
}

// policyShard and valueShard are the reused workspaces of one fixed-size
// gradient shard's two halves, one per lane. They are separate
// allocations: the two lanes of an update write them concurrently.
type policyShard struct {
	grads *nn.Grads
	s     *nn.Scratch
	gOut  []float64 // [shard x policy out] dLoss/d(policy output)
	aux   []float64 // one policy-output row: softmax probs or log-std gradients
	stats UpdateStats
}

type valueShard struct {
	grads *nn.Grads
	s     *nn.Scratch
	vOut  []float64 // [shard x 1] dLoss/dV
}

// init wires the core to its head and networks, with fresh optimizers.
func (c *agent[A]) init(head policyHead[A], l learner, policy, value *nn.MLP) {
	c.head, c.learner = head, l
	c.policy, c.value = policy, value
	c.pOpt, c.vOpt = nn.NewAdam(l.lr), nn.NewAdam(l.lr)
	c.pGrads, c.vGrads = policy.NewGrads(), value.NewGrads()
}

// netSizes returns the policy and value layer widths of an agent.
func netSizes(obsSize int, hidden []int, out int) (policy, value []int) {
	policy = append(append([]int{obsSize}, hidden...), out)
	value = append(append([]int{obsSize}, hidden...), 1)
	return policy, value
}

// newNets draws freshly initialized policy and value networks from rng.
func newNets(rng *rand.Rand, obsSize int, hidden []int, out int) (policy, value *nn.MLP, err error) {
	pSizes, vSizes := netSizes(obsSize, hidden, out)
	if policy, err = nn.NewMLP(rng, nn.Tanh, pSizes...); err != nil {
		return nil, nil, err
	}
	if value, err = nn.NewMLP(rng, nn.Tanh, vSizes...); err != nil {
		return nil, nil, err
	}
	return policy, value, nil
}

// Value returns the critic's state-value estimate at obs.
func (c *agent[A]) Value(obs []float64) float64 {
	var v [1]float64
	c.value.ForwardInto(v[:], obs)
	return v[0]
}

// Reserve pre-sizes the update workspaces for batches of up to steps
// transitions, so the first training iterations run allocation-free.
// Growth remains automatic; Reserve is an optional warm-up and is idempotent.
func (c *agent[A]) Reserve(steps int) {
	if steps <= 0 {
		return
	}
	if c.pShard == nil {
		out := c.policy.OutSize()
		c.pShard = &policyShard{
			grads: c.policy.NewGrads(),
			s:     c.policy.NewScratch(updateShardSize),
			gOut:  make([]float64, updateShardSize*out),
			aux:   make([]float64, out),
		}
		c.vShard = &valueShard{
			grads: c.value.NewGrads(),
			s:     c.value.NewScratch(updateShardSize),
			vOut:  make([]float64, updateShardSize),
		}
	}
	if !c.replay {
		rows := c.passRows(steps)
		for i := range c.lanes {
			c.lanes[i].pass.obs = grow(c.lanes[i].pass.obs, rows*c.policy.InSize())
		}
	}
}

// passRows returns the rows of one update pass over an n-transition batch.
func (c *agent[A]) passRows(n int) int {
	if c.minibatch > 0 && c.minibatch < n {
		return c.minibatch
	}
	return n
}

// --- rollout ---

// collectState is the reusable workspace of one slot's rollout.
type collectState struct {
	vs1            *nn.Scratch    // batch-1 value scratch (truncation bootstrap)
	pCache, vCache *nn.BatchCache // recorded rollout activations
	epRew          float64        // reward of the episode in flight
	ar             floatArena
	trs            []Transition
	batch          Batch
}

func (c *agent[A]) newCollectState(maxSteps int) *collectState {
	return &collectState{
		vs1:    c.value.NewScratch(1),
		pCache: c.policy.NewBatchCache(maxSteps + 1),
		vCache: c.value.NewBatchCache(maxSteps + 1),
		trs:    make([]Transition, 0, maxSteps+1),
	}
}

// begin rewinds st for a new rollout and returns its (empty) batch. A batch
// from a pooled workspace stays valid until the workspace's next rollout.
func (st *collectState) begin() *Batch {
	st.pCache.Reset()
	st.vCache.Reset()
	st.ar.reset()
	st.epRew = 0
	st.batch = Batch{Transitions: st.trs[:0]}
	return &st.batch
}

// record is the per-slot state machine of the collect loop: it appends tr
// (whose step left observation next) and reports whether the slot goes on,
// resetting first if tr ended an episode. A slot collects at least one full
// episode, then stops at perSlot transitions, truncating a live episode
// with a V(s') bootstrap.
func (c *agent[A]) record(st *collectState, tr *Transition, next []float64, perSlot int) bool {
	b := &st.batch
	st.epRew += tr.Reward
	if !tr.Done && len(b.Transitions)+1 >= perSlot && b.Episodes > 0 {
		tr.Truncate = true
		tr.LastVal = c.value.ForwardBatch(st.vs1, next, 1)[0]
	}
	b.Transitions = append(b.Transitions, *tr)
	if tr.Done {
		b.Episodes++
		b.TotalReward += st.epRew
		st.epRew = 0
	}
	if tr.Truncate || (tr.Done && len(b.Transitions) >= perSlot) {
		c.finishCollect(st)
		return false
	}
	return true
}

// finishCollect fills Transition.Value with one batched critic pass over the
// whole rollout — the per-step value estimates are consumed only by GAE at
// update time, so deferring them converts n latency-bound single-row
// forwards into one throughput-bound batched forward — and attaches the
// recorded policy/value activations to the batch for an update to replay.
func (c *agent[A]) finishCollect(st *collectState) {
	b := &st.batch
	vals := c.value.ForwardBatchAppend(st.vCache, st.pCache.Inputs(), len(b.Transitions))
	for i := range b.Transitions {
		b.Transitions[i].Value = vals[i]
	}
	b.pCache, b.vCache = st.pCache, st.vCache
	b.cacheOwner, b.cacheVersion = c.policy, c.paramsVersion
	st.trs = b.Transitions[:0]
}

// rollout is the workspace of one run of the lockstep engine over the
// slots of venv: per-slot rng streams, collect states and result batches,
// the [K x ObsSize] observation matrix the slots step in, and the
// per-worker groups.
type rollout[A any] struct {
	venv    vecEnv[A]
	perSlot int
	d       int  // venv.ObsSize()
	contain bool // recover a slot's env panic instead of propagating it
	rngs    []*rand.Rand
	states  []*collectState
	batches []*Batch
	obs     []float64
	groups  []*vecGroup
}

// row returns slot i's observation row.
func (r *rollout[A]) row(i int) []float64 { return r.obs[i*r.d : (i+1)*r.d] }

// vecGroup is the reusable per-worker state of the lockstep engine.
type vecGroup struct {
	ps    *nn.Scratch // policy scratch sized for the group
	x     []float64   // [m x ObsSize] packed active-slot observations
	slots []int       // active slot indices, ascending
	ws    []float64   // the head's sampling workspace
}

func (c *agent[A]) newVecGroup(rows int) *vecGroup {
	return &vecGroup{ps: c.policy.NewScratch(rows), ws: make([]float64, c.policy.OutSize())}
}

// Collect rolls the stochastic policy through env for up to maxSteps steps,
// restarting episodes as they finish, and returns the batch. At least one
// full episode is always collected, even if it exceeds maxSteps.
//
// Collect is a width-1 run of the lockstep engine on rng over a workspace
// of its own, so the batch stays valid after later collects, and Collect is
// safe to run concurrently with other Collect calls on the same agent (the
// networks are only read). It never injects faults or contains panics.
func (c *agent[A]) Collect(env scalarEnv[A], maxSteps int, rng *rand.Rand) *Batch {
	r := &rollout[A]{
		venv:    vecAdapter[A, scalarEnv[A]]{envs: []scalarEnv[A]{env}},
		perSlot: maxSteps,
		d:       env.ObsSize(),
		rngs:    []*rand.Rand{rng},
		states:  []*collectState{c.newCollectState(maxSteps)},
		batches: make([]*Batch, 1),
		obs:     make([]float64, env.ObsSize()),
	}
	c.runGroup(r, c.newVecGroup(1), 0, 1)
	return r.batches[0]
}

// CollectVec rolls the policy through every slot of venv and returns one
// batch per slot (nil for a slot whose panic the guard contained). Slot i's
// batch is bit-identical to Collect over the equivalent scalar environment
// with rand.New(rand.NewSource(seeds[i])) — the property the per-env
// equivalence tests in the abr, cc, and lb packages pin.
//
// Batches alias the agent's pooled per-slot workspaces and stay valid only
// until the next collect; callers consume them within the iteration.
func (c *agent[A]) CollectVec(venv vecEnv[A], perSlot int, seeds []int64) []*Batch {
	k := venv.Width()
	if len(seeds) != k {
		panic("rl: CollectVec seed count does not match env width")
	}
	c.seedBuf = grow(c.seedBuf, k)
	copy(c.seedBuf, seeds)
	return append([]*Batch(nil), c.collect(venv, perSlot)...)
}

// collect rolls out every slot of venv, seeded from seedBuf, through the
// agent's pooled rollout and returns its per-slot batches. Armed or not, it
// is one engine: the fault sites wrap venv (see faultyVec) and an armed
// guard contains slot panics (see contain).
func (c *agent[A]) collect(venv vecEnv[A], perSlot int) []*Batch {
	k := venv.Width()
	r := &c.roll
	for len(r.rngs) < k {
		// Reseeded below: bit-identical to a fresh
		// rand.New(rand.NewSource(seed)) without the two allocations.
		r.rngs = append(r.rngs, rand.New(rand.NewSource(0)))
	}
	for i := 0; i < k; i++ {
		r.rngs[i].Seed(c.seedBuf[i])
	}
	for len(r.states) < k {
		r.states = append(r.states, c.newCollectState(perSlot))
	}
	r.venv = c.faulty.wrap(venv, c.Faults, c.seedBuf[:k])
	r.perSlot, r.d, r.contain = perSlot, venv.ObsSize(), c.Guard.Enabled()
	r.batches = grow(r.batches, k)
	r.obs = grow(r.obs, k*r.d)
	groups := min(workers(c.RolloutWorkers), k)
	for len(r.groups) < groups {
		r.groups = append(r.groups, c.newVecGroup(k/groups+1))
	}
	par.ForN(groups, groups, func(gi int) {
		lo, hi := groupBounds(gi, groups, k)
		c.runGroup(r, r.groups[gi], lo, hi)
	})
	return r.batches
}

// runGroup runs the lockstep collect loop over slots [lo,hi) of r: reset
// every slot, then per tick pack the active slots' observations, run one
// batched policy forward, and advance each active slot (in index order)
// through sample, step and record. Per-slot results are independent of
// the grouping and bit-identical to a scalar loop over the slot (the
// reference in oracle_test.go): every row of a batched forward equals the
// batch-1 forward of that row (see nn.matmulNT), each slot draws all its
// randomness from its own rng, and per-slot activation caches record rows
// in the slot's own step order.
func (c *agent[A]) runGroup(r *rollout[A], g *vecGroup, lo, hi int) {
	d := r.d
	k := c.policy.OutSize()
	g.slots = g.slots[:0]
	for i := lo; i < hi; i++ {
		r.batches[i] = r.states[i].begin()
		if c.resetSlot(r, i) {
			g.slots = append(g.slots, i)
		}
	}
	for len(g.slots) > 0 {
		m := len(g.slots)
		g.x = grow(g.x, m*d)
		for j, i := range g.slots {
			copy(g.x[j*d:(j+1)*d], r.row(i))
		}
		out := c.policy.ForwardBatch(g.ps, g.x, m)
		w := 0
		for j, i := range g.slots {
			st := r.states[i]
			row := r.row(i)
			st.pCache.AppendScratchRow(g.ps, j)
			action, tr := c.head.sample(out[j*k:(j+1)*k], g.ws, r.rngs[i], &st.ar)
			tr.Obs = st.ar.clone(row)
			var ok bool
			if tr.Reward, tr.Done, ok = c.stepSlot(r, i, action); !ok || !c.record(st, &tr, row, r.perSlot) {
				continue
			}
			if tr.Done && !c.resetSlot(r, i) {
				continue
			}
			g.slots[w] = i
			w++
		}
		g.slots = g.slots[:w]
	}
}

// resetSlot starts a new episode in slot i of r, reporting false if the
// env panicked and the panic was contained.
func (c *agent[A]) resetSlot(r *rollout[A], i int) (ok bool) {
	if r.contain {
		defer c.contain(r, i)
	}
	r.venv.ResetSlot(i, r.rngs[i], r.row(i))
	return true
}

// stepSlot applies action to slot i of r, reporting ok false if the env
// panicked and the panic was contained.
func (c *agent[A]) stepSlot(r *rollout[A], i int, action A) (reward float64, done, ok bool) {
	if r.contain {
		defer c.contain(r, i)
	}
	reward, done = r.venv.StepSlot(i, action, r.row(i))
	return reward, done, true
}

// contain is deferred around a slot's env call when the guard is armed: it
// recovers a panic, leaves the slot a nil batch (the engine drops the slot,
// the survivors still train) and puts the fault on the guard's record for
// its quarantine policy. Containment is opt-in via the guard: with no guard
// a rollout panic is a genuine bug and must crash loudly.
func (c *agent[A]) contain(r *rollout[A], i int) {
	if v := recover(); v != nil {
		r.batches[i] = nil
		c.Guard.RecordRolloutFault(v)
		c.Metrics.Counter("guard/contained_rollouts").Inc()
	}
}

// --- training ---

// TrainIterationVec performs one collect-and-update iteration of totalSteps
// transitions split across venv's Width() slots (Algorithm 1's inner loop).
// Per-slot seeds are drawn from rng up front in slot order, and batches
// merge in slot index order before one update (whose PPO shuffles draw from
// rng after the seeds), so the result is deterministic for every
// RolloutWorkers and UpdateWorkers value, guard and faults armed or not.
func (c *agent[A]) TrainIterationVec(venv vecEnv[A], totalSteps int, rng *rand.Rand) (meanEpReward float64, stats UpdateStats) {
	k := venv.Width()
	if k <= 0 {
		panic("rl: TrainIterationVec over a zero-width env")
	}
	perEnv := max(totalSteps/k, 1)
	c.seedBuf = grow(c.seedBuf, k)
	for i := range c.seedBuf {
		c.seedBuf[i] = rng.Int63()
	}
	rt := c.Metrics.StartTimer("rl/rollout_seconds")
	rsp := c.Recorder.Start("rl/rollout")
	batches := c.collect(venv, perEnv)
	rt.Stop()
	if c.Recorder.Enabled() {
		rsp.EndArgs(
			obs.Arg{K: "envs", V: float64(k)},
			obs.Arg{K: "steps_per_env", V: float64(perEnv)})
	}
	c.Guard.ObserveRollouts()
	return c.mergeAndUpdate(batches, rng)
}

// mergeAndUpdate merges the per-slot batches in index order, skipping
// contained nil entries, and runs one update over the merged batch.
func (c *agent[A]) mergeAndUpdate(batches []*Batch, rng *rand.Rand) (float64, UpdateStats) {
	merged := &c.merged
	*merged = Batch{Transitions: merged.Transitions[:0]}
	for _, b := range batches {
		if b == nil {
			continue
		}
		merged.Transitions = append(merged.Transitions, b.Transitions...)
		merged.Episodes += b.Episodes
		merged.TotalReward += b.TotalReward
	}
	if c.replay {
		c.mergeCaches(merged, batches)
	}
	ut := c.Metrics.StartTimer("rl/update_seconds")
	usp := c.Recorder.Start("rl/update")
	stats := c.update(merged, rng)
	ut.Stop()
	if c.Recorder.Enabled() {
		usp.EndArgs(
			obs.Arg{K: "transitions", V: float64(len(merged.Transitions))},
			obs.Arg{K: "policy_loss", V: stats.PolicyLoss},
			obs.Arg{K: "entropy", V: stats.Entropy},
			obs.Arg{K: "kl", V: stats.KL})
	}
	return merged.MeanEpisodeReward(), stats
}

// replayable reports whether b carries this agent's rollout activations for
// its current parameters, one row per transition.
func (c *agent[A]) replayable(b *Batch) bool {
	return b != nil && b.cacheOwner == c.policy && b.cacheVersion == c.paramsVersion &&
		b.pCache.Rows() == len(b.Transitions) && b.vCache.Rows() == len(b.Transitions)
}

// mergeCaches concatenates the per-slot rollout activation caches — in slot
// index order, preserving determinism — into the agent-owned merged caches
// so the update's replay covers the merged batch. If any slot batch lacks a
// current cache the merged batch simply carries none and the update
// recomputes its forwards.
func (c *agent[A]) mergeCaches(merged *Batch, batches []*Batch) {
	for _, b := range batches {
		if !c.replayable(b) {
			return
		}
	}
	pc, vc := c.mergedCaches(len(merged.Transitions))
	for _, b := range batches {
		pc.AppendCache(b.pCache)
		vc.AppendCache(b.vCache)
	}
	merged.pCache, merged.vCache = pc, vc
	merged.cacheOwner, merged.cacheVersion = c.policy, c.paramsVersion
}

// mergedCaches returns the agent's reusable merged activation caches,
// emptied (rows is the initial capacity on first use).
func (c *agent[A]) mergedCaches(rows int) (pc, vc *nn.BatchCache) {
	if c.trainPCache == nil {
		c.trainPCache = c.policy.NewBatchCache(rows)
		c.trainVCache = c.value.NewBatchCache(rows)
	}
	c.trainPCache.Reset()
	c.trainVCache.Reset()
	return c.trainPCache, c.trainVCache
}

// advantages returns normalized GAE advantages and the discounted returns
// of b, in the agent's reusable buffers.
func (c *agent[A]) advantages(b *Batch) (adv, returns []float64) {
	n := len(b.Transitions)
	c.advBuf = grow(c.advBuf, n)
	c.retBuf = grow(c.retBuf, n)
	adv, returns = gaeInto(c.advBuf, c.retBuf, b, c.gamma, c.lambda)
	NormalizeAdvantages(adv)
	return adv, returns
}

// policyPass computes pass p's policy gradient into pGrads on the calling
// goroutine (the policy lane), one fixed shard at a time in index order:
// each shard's gradient accumulates in the lane's shard workspace and then
// folds into the sum, its stats into *stats and its aux row into auxSum if
// non-nil.
func (c *agent[A]) policyPass(p *shardPass, stats *UpdateStats, auxSum []float64) {
	sh := c.pShard
	for si := 0; si < numShards(p.n); si++ {
		sh.grads.Zero()
		clear(sh.aux)
		sh.stats = UpdateStats{}
		start, end := shardBounds(si, p.n)
		c.head.shardGrads(sh, p, start, end)
		fold(c.pGrads, sh.grads, si)
		stats.PolicyLoss += sh.stats.PolicyLoss
		stats.Entropy += sh.stats.Entropy
		stats.KL += sh.stats.KL
		stats.ClipFrac += sh.stats.ClipFrac
		for j := range auxSum {
			auxSum[j] += sh.aux[j]
		}
	}
}

// valuePass is the critic half of pass p, shared by both heads and sharded
// like policyPass: the loss 0.5*(V - R)^2 averaged over the pass, added to
// *loss, with its gradient weighted by valueCoef and folded into vGrads.
// It replays the rows' value activations when the pass carries them and
// runs the value forward over p.obs otherwise.
func (c *agent[A]) valuePass(p *shardPass, loss *float64) {
	sh := c.vShard
	n := float64(p.n)
	for si := 0; si < numShards(p.n); si++ {
		sh.grads.Zero()
		start, end := shardBounds(si, p.n)
		b := end - start
		var v []float64
		if p.vc != nil {
			v = p.vc.Output()[start:end]
		} else {
			d := c.value.InSize()
			v = c.value.ForwardBatchCache(sh.s, p.obs[start*d:end*d], b)
		}
		shardLoss := 0.0
		for r := 0; r < b; r++ {
			diff := v[r] - p.returns[p.row(start+r)]
			shardLoss += 0.5 * diff * diff / n
			sh.vOut[r] = c.valueCoef * diff / n
		}
		if p.vc != nil {
			c.value.BackwardBatchRows(p.vc, start, end, sh.vOut[:b], sh.s, sh.grads)
		} else {
			c.value.BackwardBatchParams(sh.s, sh.vOut[:b], sh.grads)
		}
		fold(c.vGrads, sh.grads, si)
		*loss += shardLoss
	}
}

// fold adds shard si's gradient into the sum g of shards 0..si-1. Shard 0
// sets g in one pass, with the bits zeroing g and adding it would leave;
// with one shard, which is every PPO minibatch, that is the whole fold.
func fold(g, shard *nn.Grads, si int) {
	if si == 0 {
		g.Assign(shard)
	} else {
		g.Add(shard)
	}
}

// poison is the GradPoison fault site: it writes NaN into the policy
// gradient just before the apply.
func (c *agent[A]) poison() {
	if c.Faults.Fire(faults.GradPoison) {
		c.pGrads.Poison(math.NaN())
		c.Metrics.Counter("faults/grad_poison").Inc()
	}
}

// check asks an armed guard whether an apply of steps transitions, whose
// losses, entropy and log-std finiteness o carries, may go ahead; it adds
// the pre-clip gradient norms and the finiteness of both nets. The guard
// sees pre-clip norms: clipping bounds the post-clip norm at ClipNorm,
// which would blind divergence detection, while NaN/Inf pass through the
// clip unchanged either way. With no guard every apply goes ahead.
func (c *agent[A]) check(o guard.UpdateObs, steps int) bool {
	if !c.Guard.Enabled() {
		return true
	}
	o.GradNorm, o.ValueGradNorm = c.pGrads.GlobalNorm(), c.vGrads.GlobalNorm()
	o.ParamsFinite = o.ParamsFinite && c.policy.AllFinite() && c.value.AllFinite()
	verdict := c.Guard.CheckUpdate(o)
	if verdict == guard.Healthy {
		return true
	}
	if c.Metrics.Enabled() {
		c.Metrics.Counter("rl/updates_skipped").Inc()
		c.Metrics.Emit("rl/update_skipped",
			metrics.F{K: "verdict", V: float64(verdict)},
			metrics.F{K: "steps", V: float64(steps)})
	}
	return false
}

// clipPolicy clips the policy gradient to clipNorm and returns its
// post-clip norm, measuring it again only when the clip rescaled.
func (c *agent[A]) clipPolicy() float64 {
	if c.clipNorm > 0 {
		return c.pGrads.ClipGlobalNorm(c.clipNorm)
	}
	return c.pGrads.GlobalNorm()
}

// recordUpdate counts one update over n transitions and emits its
// telemetry; extra carries head-specific fields.
func (c *agent[A]) recordUpdate(s UpdateStats, n int, extra ...metrics.F) {
	if !c.Metrics.Enabled() {
		return
	}
	c.Metrics.Counter("rl/updates").Inc()
	c.Metrics.Counter("rl/steps").Add(int64(n))
	var buf [8]metrics.F
	fields := append(append(buf[:0],
		metrics.F{K: "policy_loss", V: s.PolicyLoss},
		metrics.F{K: "value_loss", V: s.ValueLoss},
		metrics.F{K: "entropy", V: s.Entropy},
		metrics.F{K: "grad_norm", V: s.GradNorm},
		metrics.F{K: "steps", V: float64(n)}), extra...)
	c.Metrics.Emit("rl/update", fields...)
}

// groupBounds splits k slots into contiguous per-worker groups. The grouping
// affects only which goroutine computes which slots — per-slot rng streams
// and the per-row bit-exactness of the batched forward make the results
// identical for every group count.
func groupBounds(gi, groups, k int) (lo, hi int) {
	return gi * k / groups, (gi + 1) * k / groups
}
