package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/bo"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// Objective scores a candidate configuration for promotion given the
// evaluation of the current model on it. Genet's objective is the
// gap-to-baseline; §5.5's alternatives plug in here.
type Objective struct {
	// Name labels the curriculum strategy in experiment output.
	Name string
	// Need declares which reference evaluations the score requires.
	Need EvalNeed
	// Score maps an evaluation to the value BO maximizes.
	Score func(cfg env.Config, ev EvalResult) float64
}

// GapToBaselineObjective is Genet's criterion (§4.1).
func GapToBaselineObjective() Objective {
	return Objective{
		Name: "genet",
		Need: NeedBaseline,
		Score: func(_ env.Config, ev EvalResult) float64 {
			return nanGuard(ev.GapToBaseline())
		},
	}
}

// GapToOptimumObjective is Strawman 3 / CL3: promote where the model is far
// from the ground-truth optimal.
func GapToOptimumObjective() Objective {
	return Objective{
		Name: "cl3-gap-to-optimum",
		Need: NeedOptimal,
		Score: func(_ env.Config, ev EvalResult) float64 {
			return nanGuard(ev.GapToOptimal())
		},
	}
}

// NormalizedGapObjective is the gap-to-baseline criterion measured on
// per-environment normalized rewards. Congestion-control rewards are
// proportional to link bandwidth (Table 1), so across a [0.1, 100] Mbps
// range raw rewards span three orders of magnitude and a raw gap search
// degenerates to "always promote the fastest links"; the normalized gap
// keeps every region of the space competitive. For harnesses that do not
// compute normalized rewards it falls back to the raw gap.
func NormalizedGapObjective() Objective {
	return Objective{
		Name: "genet-normalized",
		Need: NeedBaseline,
		Score: func(_ env.Config, ev EvalResult) float64 {
			return nanGuard(ev.NormGapToBaseline())
		},
	}
}

// NormalizedOptGapObjective is CL3's gap-to-optimum on normalized rewards.
func NormalizedOptGapObjective() Objective {
	return Objective{
		Name: "cl3-normalized",
		Need: NeedOptimal,
		Score: func(_ env.Config, ev EvalResult) float64 {
			return nanGuard(ev.NormGapToOptimal())
		},
	}
}

// BaselinePerfObjective is CL2: promote where the rule-based baseline itself
// performs badly (low baseline reward = "difficult" environment).
func BaselinePerfObjective() Objective {
	return Objective{
		Name: "cl2-baseline-difficulty",
		Need: NeedBaseline,
		Score: func(_ env.Config, ev EvalResult) float64 {
			return nanGuard(-ev.Baseline)
		},
	}
}

// RobustifyObjective reproduces the §A.6 variant of Robustifying [19]: BO
// maximizes the gap to the optimum penalized by bandwidth non-smoothness.
// nonSmoothness maps a configuration to its penalty term (e.g. bandwidth
// change frequency x range); rho is the penalty weight (the paper sweeps
// 0.1/0.5/1).
func RobustifyObjective(rho float64, nonSmoothness func(env.Config) float64) Objective {
	return Objective{
		Name: fmt.Sprintf("robustify-rho%.1f", rho),
		Need: NeedOptimal,
		Score: func(cfg env.Config, ev EvalResult) float64 {
			return nanGuard(ev.GapToOptimal()) - rho*nonSmoothness(cfg)
		},
	}
}

// Options configure a Genet training run (Algorithm 2 defaults from §4.2).
type Options struct {
	// Rounds is the number of curriculum iterations; the paper stops
	// after changing the distribution 9 times.
	Rounds int
	// ItersPerRound is the fixed number of RL training iterations between
	// environment promotions (default 10).
	ItersPerRound int
	// BOSteps is the BO evaluation budget per round (default 15).
	BOSteps int
	// EnvsPerEval is k, the environments per gap estimate (default 10).
	EnvsPerEval int
	// PromoteWeight is w, the mixture weight of each promoted
	// configuration (default 0.3).
	PromoteWeight float64
	// Objective is the promotion criterion (default gap-to-baseline).
	Objective Objective
	// WarmupIters trains on the full uniform distribution before the
	// first promotion ("GENET does begin the training over the whole
	// space of environments in the first iteration", §4.2). Default 10.
	WarmupIters int
	// Search selects the environment-space searcher; BO by default.
	// The Fig 20 comparison swaps in random or coordinate search.
	Search SearchKind
	// AfterRound, when non-nil, runs after each curriculum round (and
	// once with round == -1 after warm-up). Training-curve experiments
	// use it to checkpoint test rewards.
	AfterRound func(round int)
	// ExplorationFloor forces at least this fraction of training samples
	// to come from the original uniform distribution. The paper found
	// this classic anti-forgetting measure makes Genet *worse* (footnote
	// 7); it is exposed for the forgetting ablation and defaults to off.
	ExplorationFloor float64
	// Metrics optionally receives curriculum telemetry: the current phase,
	// per-round promotion decisions, and the BO query stream. NewTrainer
	// also attaches it to the harness (and through it the agent), so one
	// registry observes the whole stack. Telemetry is observation-only —
	// it never draws from rng — so attaching it cannot change a run.
	Metrics *metrics.Registry
	// Guard optionally arms the training-health watchdog. NewTrainer
	// attaches it to the harness agent (pre-apply NaN/divergence scan,
	// rollout-panic containment) and the trainer enforces its recovery
	// policy at round boundaries: quarantining a promoted configuration
	// after consecutive faulty rollouts and rolling back to the last
	// checkpoint after consecutive unhealthy updates. A guard observing a
	// healthy run consumes no randomness and changes nothing, so arming it
	// on a fault-free run is bit-invisible.
	Guard *guard.Guard
	// Faults optionally injects deterministic faults for chaos testing;
	// NewTrainer threads it through the harness agent (env-step panics,
	// poisoned gradients, corrupted traces), the BO search (query
	// failures), and the checkpoint writer (write failures). nil = off.
	Faults *faults.Injector
	// Recorder optionally attaches the flight recorder: the trainer
	// records train/warmup, train/round, bo/search, ckpt/write, and
	// ckpt/read spans plus curriculum instant markers, and NewTrainer
	// threads the recorder through the harness (train/iter) and its agent
	// (rl/rollout, rl/update) and into the BO search (bo/query). Like
	// Metrics, recording is observation-only — it never draws from rng —
	// so attaching it cannot change a run.
	Recorder *obs.Recorder
	// Status optionally publishes the live run position (phase, curriculum
	// distribution, last checkpoint) for the introspection server's /run
	// endpoint. nil = off.
	Status *obs.RunStatus
	// AfterRecovery, when non-nil, runs synchronously each time a guard
	// intervention is recorded (rollback, quarantine, skipped updates,
	// checkpoint retries). genet-train uses it to flush the event sink and
	// span trace so the artifacts on disk are complete at every recovery
	// point even if the process later dies.
	AfterRecovery func(RecoveryEvent)
}

// SearchKind selects how the sequencing module explores the config space.
type SearchKind int

// Searcher kinds.
const (
	SearchBO SearchKind = iota
	SearchRandom
	SearchCoordinate
)

func (o *Options) defaults() {
	if o.Rounds <= 0 {
		o.Rounds = 9
	}
	if o.ItersPerRound <= 0 {
		o.ItersPerRound = 10
	}
	if o.BOSteps <= 0 {
		o.BOSteps = 15
	}
	if o.EnvsPerEval <= 0 {
		o.EnvsPerEval = 10
	}
	if o.PromoteWeight <= 0 || o.PromoteWeight >= 1 {
		o.PromoteWeight = 0.3
	}
	if o.Objective.Score == nil {
		o.Objective = GapToBaselineObjective()
	}
	if o.WarmupIters < 0 {
		o.WarmupIters = 0
	} else if o.WarmupIters == 0 {
		o.WarmupIters = 10
	}
}

// RecoveryEvent records one guard intervention during training. Events
// accumulate while a round is in flight (including rounds whose state a
// rollback discarded) and land in the next completed RoundReport, so the
// report of a recovered run shows what it took to finish.
type RecoveryEvent struct {
	// Kind is "rollback" (trainer restored the last checkpoint),
	// "rollback-unavailable" (rollback demanded but no checkpoint
	// exists), "quarantine" (a promoted config was removed from the
	// curriculum), "skipped-updates" (poisoned minibatch applies vetoed
	// this round), or "ckpt-retry" (checkpoint write succeeded only
	// after retries).
	Kind string
	// Round is the curriculum round in flight when the event fired.
	Round int
	// Count is the triggering magnitude: the unhealthy-update or
	// rollout-fault streak, the number of skipped updates, or the number
	// of write attempts.
	Count int
	// Detail is a human-readable reason (e.g. the contained panic).
	Detail string
}

// RoundReport records one curriculum round.
type RoundReport struct {
	Round        int
	Promoted     env.Config
	Score        float64   // objective value of the promoted config
	SearchEvals  int       // environment-space points evaluated
	TrainRewards []float64 // per-iteration training rewards after promotion
	// Search is the full environment-space search history of this round
	// (every evaluated point with its objective value). Heuristic
	// curricula, which do not search, leave it nil.
	Search *bo.Trace
	// Recoveries lists the guard interventions that fired while this
	// round (or a discarded attempt at it) was in flight; empty on
	// healthy rounds.
	Recoveries []RecoveryEvent
}

// Report is the outcome of a Genet run.
type Report struct {
	Strategy     string
	WarmupCurve  []float64
	Rounds       []RoundReport
	Distribution *env.Distribution
	// Interrupted is true when a checkpointed run returned early because
	// its stop condition fired; the written checkpoint resumes it.
	Interrupted bool
}

// Best returns the round whose promoted configuration scored highest, or
// false when no rounds have completed.
func (r *Report) Best() (RoundReport, bool) {
	if len(r.Rounds) == 0 {
		return RoundReport{}, false
	}
	best := r.Rounds[0]
	for _, round := range r.Rounds[1:] {
		if round.Score > best.Score {
			best = round
		}
	}
	return best, true
}

// TrainingCurve concatenates warm-up and per-round training rewards.
func (r *Report) TrainingCurve() []float64 {
	out := append([]float64(nil), r.WarmupCurve...)
	for _, round := range r.Rounds {
		out = append(out, round.TrainRewards...)
	}
	return out
}

// Trainer runs the Genet curriculum loop against a harness.
type Trainer struct {
	h    Harness
	opts Options
}

// NewTrainer builds a trainer; opts fields at zero take Algorithm 2
// defaults. The non-nil hooks among opts.Metrics, Guard, Faults and
// Recorder are attached to the harness and its agent (AttachHooks).
func NewTrainer(h Harness, opts Options) *Trainer {
	opts.defaults()
	AttachHooks(h, opts.Metrics, opts.Guard, opts.Faults, opts.Recorder)
	return &Trainer{h: h, opts: opts}
}

// Options returns the resolved options.
func (t *Trainer) Options() Options { return t.opts }

// Run executes the full curriculum (Algorithm 2):
//
//  1. warm-up training over the uniform distribution;
//  2. per round: search the config space for the objective's maximizer
//     (restarting the search from scratch each round — the rewarding
//     environments change when the model changes), promote it into the
//     training distribution with weight w, and train ItersPerRound more
//     iterations.
func (t *Trainer) Run(rng *rand.Rand) (*Report, error) {
	return t.runLoop(t.newRunState(), rng, nil)
}

// runState is the trainer's complete resumable position: the report
// accumulated so far (whose Rounds length is the resume cursor) and whether
// warm-up has completed. Checkpoints serialize it alongside the agent state
// and the rng position.
type runState struct {
	rep        *Report
	warmupDone bool
}

func (t *Trainer) newRunState() *runState {
	rep := &Report{
		Strategy:     t.opts.Objective.Name,
		Distribution: env.NewDistribution(t.h.Space()),
	}
	rep.Distribution.SetExplorationFloor(t.opts.ExplorationFloor)
	return &runState{rep: rep}
}

// runLoop executes the curriculum from wherever st points. A fresh state
// starts at warm-up; a restored one re-enters the round loop at
// len(rep.Rounds). ck (nil for plain runs) persists the state at safe
// points — positions where no partial round is in flight — and may stop the
// run early.
func (t *Trainer) runLoop(st *runState, rng *rand.Rand, ck *checkpointer) (*Report, error) {
	rep := st.rep
	m := t.opts.Metrics
	rec := t.opts.Recorder
	if !st.warmupDone {
		if m.Enabled() {
			// Phase -1 is warm-up; rounds count from 0.
			m.Gauge("curriculum/phase").Set(-1)
			m.Emit("curriculum/phase", metrics.F{K: "round", V: -1})
		}
		t.opts.Status.SetPhase(-1)
		if t.opts.WarmupIters > 0 {
			wsp := rec.Start("train/warmup")
			rep.WarmupCurve = t.h.Train(rep.Distribution, t.opts.WarmupIters, rng)
			if rec.Enabled() {
				wsp.EndArgs(obs.Arg{K: "iters", V: float64(t.opts.WarmupIters)})
			}
		}
		st.warmupDone = true
		if t.opts.AfterRound != nil {
			t.opts.AfterRound(-1)
		}
		if stop, err := ck.safePoint(t, st, -1); err != nil || stop {
			return rep, err
		}
	}
	// pendingRecoveries accumulates guard interventions until a round
	// completes. It deliberately lives outside the (re-assignable) run
	// state: a rollback discards the poisoned round's state but must not
	// discard the record of the rollback itself.
	g := t.opts.Guard
	var pendingRecoveries []RecoveryEvent
	// noteRecovery appends a guard intervention and fires the AfterRecovery
	// hook so artifact flushes happen at the moment of recovery, not at the
	// next round boundary.
	noteRecovery := func(ev RecoveryEvent) {
		pendingRecoveries = append(pendingRecoveries, ev)
		if t.opts.AfterRecovery != nil {
			t.opts.AfterRecovery(ev)
		}
	}
	for len(rep.Rounds) < t.opts.Rounds {
		round := len(rep.Rounds)
		t.opts.Status.SetPhase(round)
		rsp := rec.Start("train/round")
		cfg, score, tr, err := t.searchOnce(rng)
		if err != nil {
			return nil, fmt.Errorf("core: round %d search: %w", round, err)
		}
		evals := len(tr.Evals)
		if err := rep.Distribution.Promote(cfg, t.opts.PromoteWeight); err != nil {
			return nil, fmt.Errorf("core: round %d promote: %w", round, err)
		}
		if m.Enabled() {
			m.Gauge("curriculum/phase").Set(float64(round))
			m.Counter("curriculum/promotions").Inc()
			vals := cfg.Values()
			fields := make([]metrics.F, 0, 3+len(vals))
			fields = append(fields,
				metrics.F{K: "round", V: float64(round)},
				metrics.F{K: "score", V: score},
				metrics.F{K: "evals", V: float64(evals)})
			for i, name := range t.h.Space().Names() {
				fields = append(fields, metrics.F{K: "cfg/" + name, V: vals[i]})
			}
			m.Emit("curriculum/promote", fields...)
		}
		rec.Instant("curriculum/promote",
			obs.Arg{K: "round", V: float64(round)},
			obs.Arg{K: "score", V: score})
		t.publishStatus(rep, score)
		curve := t.h.Train(rep.Distribution, t.opts.ItersPerRound, rng)
		if skips := g.TakeSkips(); skips > 0 {
			noteRecovery(RecoveryEvent{
				Kind: "skipped-updates", Round: round, Count: skips,
			})
		}
		if g.RollbackNeeded() {
			if path := ck.rollbackPath(); path != "" {
				streak := g.UnhealthyStreak()
				st2, rng2, err := t.restore(path)
				if err != nil {
					return nil, fmt.Errorf("core: round %d rollback: %w", round, err)
				}
				g.AcknowledgeRollback()
				noteRecovery(RecoveryEvent{
					Kind: "rollback", Round: round, Count: streak,
					Detail: fmt.Sprintf("restored %s after %d consecutive unhealthy updates", path, streak),
				})
				if m.Enabled() {
					m.Emit("curriculum/rollback",
						metrics.F{K: "round", V: float64(round)},
						metrics.F{K: "streak", V: float64(streak)})
				}
				rec.Instant("curriculum/rollback",
					obs.Arg{K: "round", V: float64(round)},
					obs.Arg{K: "streak", V: float64(streak)})
				// Re-enter the loop from the restored position. The fault
				// injector's call counters are process-lifetime (never
				// checkpointed), so the replayed rounds see a different
				// point in the fault schedule instead of re-hitting the
				// same faults forever.
				st = st2
				rep = st.rep
				rng = rng2.Rand
				ck.rng = rng2
				t.publishStatus(rep, 0)
				rsp.EndArgs(
					obs.Arg{K: "round", V: float64(round)},
					obs.Arg{K: "rolled_back", V: 1})
				continue
			}
			// No checkpoint to restore: log and move on rather than
			// re-demanding a rollback every round.
			noteRecovery(RecoveryEvent{
				Kind: "rollback-unavailable", Round: round, Count: g.UnhealthyStreak(),
				Detail: "rollback demanded but no checkpoint is configured",
			})
			g.ResetUnhealthyStreak()
		}
		if g.QuarantineNeeded() {
			// Attribute the fault streak to the newest promotion: its
			// mixture weight dominates sampling, so it is overwhelmingly
			// the configuration the faulty rollouts came from.
			idx := rep.Distribution.NumPromoted() - 1
			streak := g.RolloutFaultStreak()
			reason := g.LastRolloutFault()
			if reason == "" {
				reason = "consecutive faulty rollouts"
			}
			if err := rep.Distribution.Quarantine(idx, reason); err != nil {
				return nil, fmt.Errorf("core: round %d quarantine: %w", round, err)
			}
			g.AcknowledgeQuarantine()
			noteRecovery(RecoveryEvent{
				Kind: "quarantine", Round: round, Count: streak,
				Detail: fmt.Sprintf("promotion %d: %s", idx, reason),
			})
			if m.Enabled() {
				m.Emit("curriculum/quarantine",
					metrics.F{K: "round", V: float64(round)},
					metrics.F{K: "promotion", V: float64(idx)},
					metrics.F{K: "streak", V: float64(streak)})
			}
			rec.Instant("curriculum/quarantine",
				obs.Arg{K: "round", V: float64(round)},
				obs.Arg{K: "promotion", V: float64(idx)})
			t.publishStatus(rep, score)
		}
		rep.Rounds = append(rep.Rounds, RoundReport{
			Round:        round,
			Promoted:     cfg,
			Score:        score,
			SearchEvals:  evals,
			TrainRewards: curve,
			Search:       tr.Clone(),
			Recoveries:   pendingRecoveries,
		})
		pendingRecoveries = nil
		rsp.EndArgs(
			obs.Arg{K: "round", V: float64(round)},
			obs.Arg{K: "score", V: score},
			obs.Arg{K: "evals", V: float64(evals)})
		if t.opts.AfterRound != nil {
			t.opts.AfterRound(round)
		}
		if stop, err := ck.safePoint(t, st, round); err != nil || stop {
			return rep, err
		}
	}
	if err := ck.finish(t, st); err != nil {
		return rep, err
	}
	return rep, nil
}

// searchOnce runs one environment-space search for the current model and
// returns the best configuration found.
func (t *Trainer) searchOnce(rng *rand.Rand) (env.Config, float64, *bo.Trace, error) {
	space := t.h.Space()
	sp := t.opts.Recorder.Start("bo/search")
	objective := func(x []float64) float64 {
		cfg, err := space.FromUnit(x)
		if err != nil {
			return math.Inf(-1) // unreachable: searcher dims match the space
		}
		ev := t.h.Eval(cfg, t.opts.EnvsPerEval, t.opts.Objective.Need, rng)
		return t.opts.Objective.Score(cfg, ev)
	}
	var (
		tr  *bo.Trace
		err error
	)
	switch t.opts.Search {
	case SearchRandom:
		tr = bo.RandomSearch(objective, space.NumDims(), t.opts.BOSteps, rng)
	case SearchCoordinate:
		tr = bo.CoordinateSearch(objective, space.NumDims(), 5, t.opts.BOSteps, rng)
	default:
		tr, err = bo.Maximize(objective, bo.Options{
			Dims:     space.NumDims(),
			Steps:    t.opts.BOSteps,
			Metrics:  t.opts.Metrics,
			Faults:   t.opts.Faults,
			Recorder: t.opts.Recorder,
		}, rng)
		if err != nil {
			sp.End()
			return env.Config{}, 0, nil, err
		}
	}
	sp.EndArgs(obs.Arg{K: "evals", V: float64(len(tr.Evals))})
	best, ok := tr.Best()
	if !ok {
		return env.Config{}, 0, nil, fmt.Errorf("core: empty search trace")
	}
	cfg, err := space.FromUnit(best.X)
	if err != nil {
		return env.Config{}, 0, nil, err
	}
	return cfg, best.Value, tr, nil
}

// publishStatus pushes the live curriculum view into opts.Status for the
// introspection server's /run endpoint. newestScore is the objective value
// of the most recent promotion when its round report has not landed yet
// (completed rounds carry their own scores). A nil Status makes this free.
func (t *Trainer) publishStatus(rep *Report, newestScore float64) {
	s := t.opts.Status
	if !s.Enabled() {
		return
	}
	d := rep.Distribution
	names := t.h.Space().Names()
	proms := d.Promoted()
	ps := make([]obs.Promotion, len(proms))
	for i, cfg := range proms {
		vals := cfg.Values()
		vm := make(map[string]float64, len(vals))
		for j, n := range names {
			if j < len(vals) {
				vm[n] = vals[j]
			}
		}
		score := newestScore
		if i < len(rep.Rounds) {
			score = rep.Rounds[i].Score
		}
		ps[i] = obs.Promotion{
			Index:       i,
			Values:      vm,
			Weight:      d.PromotionWeight(i),
			Score:       score,
			Quarantined: d.IsQuarantined(i),
		}
	}
	for _, q := range d.Quarantines() {
		if q.Index >= 0 && q.Index < len(ps) {
			ps[q.Index].Reason = q.Reason
		}
	}
	s.SetDistribution(d.BaseWeight(), ps)
}

// HeuristicSchedule is CL1 (§5.5): instead of searching, promote a
// hand-scheduled configuration each round — e.g. monotonically increasing
// bandwidth-fluctuation frequency. Schedule maps (round, totalRounds) to
// the configuration to promote.
type HeuristicSchedule func(round, totalRounds int, space *env.Space) env.Config

// RunHeuristicCurriculum trains with a CL1-style hand-picked curriculum
// using the same round structure as Genet.
func RunHeuristicCurriculum(h Harness, opts Options, schedule HeuristicSchedule, rng *rand.Rand) (*Report, error) {
	opts.defaults()
	rep := &Report{
		Strategy:     "cl1-heuristic",
		Distribution: env.NewDistribution(h.Space()),
	}
	if opts.WarmupIters > 0 {
		rep.WarmupCurve = h.Train(rep.Distribution, opts.WarmupIters, rng)
	}
	if opts.AfterRound != nil {
		opts.AfterRound(-1)
	}
	for round := 0; round < opts.Rounds; round++ {
		cfg := schedule(round, opts.Rounds, h.Space())
		if err := rep.Distribution.Promote(cfg, opts.PromoteWeight); err != nil {
			return nil, fmt.Errorf("core: CL1 round %d: %w", round, err)
		}
		curve := h.Train(rep.Distribution, opts.ItersPerRound, rng)
		rep.Rounds = append(rep.Rounds, RoundReport{
			Round: round, Promoted: cfg, TrainRewards: curve,
		})
		if opts.AfterRound != nil {
			opts.AfterRound(round)
		}
	}
	return rep, nil
}
