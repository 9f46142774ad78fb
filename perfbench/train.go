package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/obs"
)

// trainRounds is the fixed curriculum budget of one training run: warm-up
// plus this many Algorithm 2 rounds, each checkpointed.
const trainRounds = 2

// callStats accumulates the calls into one Harness method.
type callStats struct {
	wall time.Duration
	cpu  time.Duration // process CPU time during the calls (traced runs)
}

// timedHarness wraps a harness and times every call into it from outside:
// Train, Eval and SaveAgentState. It forwards the optional interfaces the
// trainer probes for — AgentStateHarness, which checkpointing requires, and
// RecorderSetter, through which the rl spans reach the agent — so a run
// through the wrapper is the same program as a run without it. With deep
// set it also samples process CPU time around Train and Eval and the
// allocation count around Train.
type timedHarness struct {
	h    core.Harness
	ash  core.AgentStateHarness
	rs   core.RecorderSetter
	deep bool

	train, eval, save callStats
	trainIters        int
	evalEnvs          int
	trainMallocs      uint64
	evalLat           []time.Duration
}

func wrapHarness(h core.Harness, deep bool) (*timedHarness, error) {
	ash, ok := h.(core.AgentStateHarness)
	if !ok {
		return nil, fmt.Errorf("harness %T does not support agent state capture", h)
	}
	rs, ok := h.(core.RecorderSetter)
	if !ok {
		return nil, fmt.Errorf("harness %T does not support the flight recorder", h)
	}
	return &timedHarness{h: h, ash: ash, rs: rs, deep: deep}, nil
}

func (t *timedHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	var (
		ms   runtime.MemStats
		cpu0 time.Duration
	)
	if t.deep {
		runtime.ReadMemStats(&ms)
		t.trainMallocs -= ms.Mallocs
		cpu0 = cpuTime()
	}
	t0 := time.Now()
	out := t.h.Train(dist, iters, rng)
	t.train.wall += time.Since(t0)
	if t.deep {
		t.train.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&ms)
		t.trainMallocs += ms.Mallocs
	}
	t.trainIters += iters
	return out
}

func (t *timedHarness) Eval(cfg env.Config, n int, need core.EvalNeed, rng *rand.Rand) core.EvalResult {
	var cpu0 time.Duration
	if t.deep {
		cpu0 = cpuTime()
	}
	t0 := time.Now()
	out := t.h.Eval(cfg, n, need, rng)
	d := time.Since(t0)
	if t.deep {
		t.eval.cpu += cpuTime() - cpu0
	}
	t.eval.wall += d
	t.evalEnvs += n
	t.evalLat = append(t.evalLat, d)
	return out
}

func (t *timedHarness) SaveAgentState(w io.Writer) error {
	t0 := time.Now()
	err := t.ash.SaveAgentState(w)
	t.save.wall += time.Since(t0)
	return err
}

func (t *timedHarness) LoadAgentState(r io.Reader) error { return t.ash.LoadAgentState(r) }
func (t *timedHarness) SetRecorder(r *obs.Recorder)      { t.rs.SetRecorder(r) }
func (t *timedHarness) Snapshot() core.Harness           { return t.h.Snapshot() }
func (t *timedHarness) Space() *env.Space                { return t.h.Space() }

// trainCase is how a training workload builds its use case.
type trainCase struct {
	// space is the RL3 space with the dimensions that set how much an
	// episode simulates pinned at their Table 3/4 defaults: for abr the
	// video and chunk length (49 chunks) and the bandwidth range (the
	// simulator integrates each download in 50 ms steps, so its cost
	// scales with 1/bandwidth); for cc the min RTT, which sets the monitor
	// interval. Every other dimension keeps its RL3 range. Without the pins
	// the configurations the search happens to visit would decide how much
	// a run simulates, and run time would follow the seed, not the code.
	space func() *env.Space
	build func(space *env.Space, rng *rand.Rand) (core.Harness, error)
	// objective is the promotion criterion genet-train uses (zero value:
	// the default gap-to-baseline).
	objective core.Objective
	// transitions is the number of training transitions per iteration.
	transitions func(h core.Harness) float64
}

var trainCases = map[string]trainCase{
	"abr": {
		space: func() *env.Space {
			return pinned(env.ABRSpace(env.RL3), env.ABRDefaults(),
				env.ABRVideoLength, env.ABRChunkLength, env.ABRMaxBW, env.ABRBWMinRatio)
		},
		build: func(space *env.Space, rng *rand.Rand) (core.Harness, error) {
			return core.NewABRHarness(space, rng)
		},
		transitions: func(h core.Harness) float64 { return float64(h.(*core.ABRHarness).StepsPerIter) },
	},
	"cc": {
		space: func() *env.Space {
			return pinned(env.CCSpace(env.RL3), env.CCDefaults(), env.CCMinRTT)
		},
		build: func(space *env.Space, rng *rand.Rand) (core.Harness, error) {
			return core.NewCCHarness(space, rng)
		},
		objective:   core.NormalizedGapObjective(),
		transitions: func(h core.Harness) float64 { return float64(h.(*core.CCHarness).StepsPerIter) },
	},
}

// pinned returns space with each named dimension fixed at its default.
func pinned(space *env.Space, defaults map[string]float64, names ...string) *env.Space {
	dims := space.Dims()
	for i, d := range dims {
		for _, n := range names {
			if d.Name == n {
				dims[i].Min, dims[i].Max = defaults[n], defaults[n]
			}
		}
	}
	return env.MustSpace(dims...)
}

// genetRun is one fixed-budget Genet training run.
type genetRun struct {
	setup  time.Duration // harness, wrapper and trainer construction
	wall   time.Duration // RunCheckpointed, warm-up through the last checkpoint
	digest [32]byte
	th     *timedHarness
	tc     trainCase
}

// trainRate is training transitions per second of Train wall time.
func (r *genetRun) trainRate() float64 {
	return float64(r.th.trainIters) * r.tc.transitions(r.th.h) / r.th.train.wall.Seconds()
}

// runGenet trains the use case's harness with Algorithm 2 as genet-train
// does (default harness sizes and baseline, genet-train's objective) over
// the pinned RL3 space, checkpointing every round to ckPath. rec, when non-nil,
// records the program's own spans.
func runGenet(uc string, seed int64, ckPath string, rec *obs.Recorder, deep bool) (*genetRun, error) {
	tc, ok := trainCases[uc]
	if !ok {
		return nil, fmt.Errorf("unknown use case %q", uc)
	}
	t0 := time.Now()
	crng := ckpt.NewRand(seed)
	h, err := tc.build(tc.space(), crng.Rand)
	if err != nil {
		return nil, err
	}
	th, err := wrapHarness(h, deep)
	if err != nil {
		return nil, err
	}
	tr := core.NewTrainer(th, core.Options{
		Rounds: trainRounds, ItersPerRound: 10, BOSteps: 15, EnvsPerEval: 10,
		PromoteWeight: 0.3, WarmupIters: 10, Objective: tc.objective, Recorder: rec,
	})
	run := &genetRun{setup: time.Since(t0), th: th, tc: tc}

	start := time.Now()
	rep, err := tr.RunCheckpointed(crng, core.CheckpointOptions{Path: ckPath})
	run.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if rep.Interrupted || len(rep.Rounds) != trainRounds {
		return nil, fmt.Errorf("run ended after %d of %d rounds", len(rep.Rounds), trainRounds)
	}
	if run.digest, err = digestReport(rep, th.ash); err != nil {
		return nil, err
	}
	return run, nil
}

// digestReport hashes what a run decided and learned: every promoted
// configuration and its score, the whole training curve, and the final
// agent state bytes.
func digestReport(rep *core.Report, ash core.AgentStateHarness) ([32]byte, error) {
	hs := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		hs.Write(b[:])
	}
	for _, r := range rep.Rounds {
		for _, v := range r.Promoted.Values() {
			put(v)
		}
		put(r.Score)
	}
	for _, v := range rep.TrainingCurve() {
		put(v)
	}
	var state bytes.Buffer
	if err := ash.SaveAgentState(&state); err != nil {
		return [32]byte{}, err
	}
	hs.Write(state.Bytes())
	var out [32]byte
	copy(out[:], hs.Sum(nil))
	return out, nil
}

// trainE2E measures fixed-budget Genet runs back to back, untraced, for the
// budget. Run j trains with its own seed derived from the workload seed, so
// the medians cover many curricula. A first run warms caches and the heap
// and is repeated at the end: both must produce the same digest.
func trainE2E(uc string, c config) (*result, error) {
	ck := filepath.Join(c.dir, "genet.ckpt")
	res := &result{}
	ref, err := runGenet(uc, runSeed(c.seed, 0), ck, nil, false)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	setups := []float64{ref.setup.Seconds()}
	var walls, rates, p50s []float64
	deadline := time.Now().Add(c.budget)
	for j := 1; j == 1 || time.Now().Before(deadline); j++ {
		r, err := runGenet(uc, runSeed(c.seed, j), ck, nil, false)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, r.trainRate())
		evalUS := make([]float64, len(r.th.evalLat))
		for i, d := range r.th.evalLat {
			evalUS[i] = float64(d) / 1e3
		}
		p50s = append(p50s, median(evalUS))
		fmt.Printf("   run %2d: %.3f s, train %.0f transitions/s, eval %.3f s\n", j, r.wall.Seconds(), r.trainRate(), r.th.eval.wall.Seconds())
	}
	again, err := runGenet(uc, runSeed(c.seed, 0), ck, nil, false)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if again.digest != ref.digest {
		res.fail(1)
		fmt.Println("   digest mismatch between two runs of one seed")
	}
	fmt.Printf("   digest of seed %d: %x (reproduced: %v)\n", runSeed(c.seed, 0), ref.digest[:8], again.digest == ref.digest)
	res.set("setup_s", median(setups), "s")
	res.set("run_s", median(walls), "s")
	res.set("latency_p50_us", median(p50s), "us")
	res.set("throughput_per_s", median(rates), "1/s")
	return res, nil
}

// runSeed derives the training seed of run j from the workload seed.
func runSeed(seed int64, j int) int64 { return seed*1000003 + int64(j) }

// trainSpanFamilies are the spans every traced training run must record.
var trainSpanFamilies = []string{
	"train/warmup", "train/round", "train/iter", "rl/rollout", "rl/update",
	"bo/search", "bo/query", "ckpt/write",
}

// spanSums totals span durations (seconds) and counts by name, and the
// "transitions" annotations of rl/update spans.
type spanSums struct {
	dur         map[string]float64
	n           map[string]int
	transitions float64
}

func sumSpans(rec *obs.Recorder) spanSums {
	s := spanSums{dur: map[string]float64{}, n: map[string]int{}}
	for _, e := range rec.Events() {
		if e.Phase != "X" {
			continue
		}
		s.dur[e.Name] += e.Dur / 1e6
		s.n[e.Name]++
		if e.Name == "rl/update" {
			s.transitions += e.Args["transitions"]
		}
	}
	return s
}

// trainTrace alternates untraced and traced runs of the same seed for the
// budget. Every run must reproduce the reference digest — all probes are
// observation-only, so this proves the trace measured the same program —
// and every traced run must record each span family without dropping any.
// Layer values are per run, averaged over the traced runs.
func trainTrace(uc string, c config) (*result, *node, error) {
	ck := filepath.Join(c.dir, "genet.ckpt")
	res := &result{}
	ref, err := runGenet(uc, c.seed, ck, nil, false)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted++
	check := func(r *genetRun) {
		res.Attempted++
		if r.digest != ref.digest {
			res.fail(1)
			fmt.Println("   digest mismatch between runs of one seed")
		}
	}
	var (
		plain, traced []float64
		acc           struct {
			trainS, evalS, saveS, trainCPU, evalCPU float64
			iters, envs, mallocs                    float64
			spans                                   spanSums
			total, dropped                          float64
			ckBytes                                 float64
		}
	)
	acc.spans = spanSums{dur: map[string]float64{}, n: map[string]int{}}
	deadline := time.Now().Add(c.budget * 3 / 4) // the rest is for cross-checks
	var last *genetRun
	for len(traced) == 0 || time.Now().Before(deadline) {
		u, err := runGenet(uc, c.seed, ck, nil, false)
		if err != nil {
			return nil, nil, err
		}
		check(u)
		plain = append(plain, u.wall.Seconds())

		rec := obs.NewRecorder(0)
		t, err := runGenet(uc, c.seed, ck, rec, true)
		if err != nil {
			return nil, nil, err
		}
		check(t)
		traced = append(traced, t.wall.Seconds())
		st := rec.Stats()
		if st.Dropped > 0 {
			res.fail(1)
			fmt.Printf("   recorder dropped %d spans\n", st.Dropped)
		}
		sp := sumSpans(rec)
		for _, fam := range trainSpanFamilies {
			if sp.n[fam] == 0 {
				res.fail(1)
				fmt.Printf("   span family %s missing\n", fam)
			}
		}
		for k, v := range sp.dur {
			acc.spans.dur[k] += v
			acc.spans.n[k] += sp.n[k]
		}
		acc.spans.transitions += sp.transitions
		acc.total += float64(st.Total)
		acc.dropped += float64(st.Dropped)
		th := t.th
		acc.trainS += th.train.wall.Seconds()
		acc.evalS += th.eval.wall.Seconds()
		acc.saveS += th.save.wall.Seconds()
		acc.trainCPU += th.train.cpu.Seconds()
		acc.evalCPU += th.eval.cpu.Seconds()
		acc.iters += float64(th.trainIters)
		acc.envs += float64(th.evalEnvs)
		acc.mallocs += float64(th.trainMallocs)
		if fi, err := os.Stat(ck); err == nil {
			acc.ckBytes += float64(fi.Size())
		}
		last = t
	}
	n := float64(len(traced))
	per := func(v float64) float64 { return v / n }
	span := func(name string) float64 { return acc.spans.dur[name] / n }

	runS, plainS := mean(traced), mean(plain)
	trainS, evalS := per(acc.trainS), per(acc.evalS)
	rolloutS, updateS := span("rl/rollout"), span("rl/update")
	searchS, queryS := span("bo/search"), span("bo/query")
	writeS := span("ckpt/write")
	transitions := per(acc.spans.transitions)
	envs := per(acc.envs)

	x := trainCrossChecks(uc, last.th.h, c.seed, c.budget/4)

	res.set("run_s", runS, "s")
	res.set("core.train_s", trainS, "s")
	res.set("core.train_iters", per(acc.iters), "count")
	res.set("core.eval_s", evalS, "s")
	res.set("core.eval_envs", envs, "count")
	res.set("core.eval_ms_per_env", evalS*1e3/envs, "ms")
	res.set("core.save_agent_ms", per(acc.saveS)*1e3, "ms")
	res.set("rl.rollout_s", rolloutS, "s")
	res.set("rl.update_s", updateS, "s")
	res.set("rl.transitions", transitions, "count")
	res.set("rl.us_per_transition", (rolloutS+updateS)*1e6/transitions, "us")
	res.set("rl.allocs_per_iter", acc.mallocs/acc.iters, "count")
	res.set("bo.search_s", searchS, "s")
	res.set("bo.self_s", searchS-queryS, "s")
	res.set("bo.queries", float64(acc.spans.n["bo/query"])/n, "count")
	res.set("ckpt.write_ms", writeS*1e3, "ms")
	res.set("ckpt.writes", float64(acc.spans.n["ckpt/write"])/n, "count")
	res.set("ckpt.bytes", per(acc.ckBytes), "bytes")
	res.set("par.train_cpu_per_wall", acc.trainCPU/acc.trainS, "ratio")
	res.set("par.eval_cpu_per_wall", acc.evalCPU/acc.evalS, "ratio")
	res.set("obs.spans", per(acc.total), "count")
	res.set("obs.spans_dropped", per(acc.dropped), "count")
	res.set("trace_overhead", runS/plainS-1, "ratio")
	for k, v := range x.metrics {
		res.set(k, v.Value, v.Unit)
	}

	root := leaf("run_s", runS, "s", fmt.Sprintf("mean of %d traced runs of %d rounds; untraced %.4f s", len(traced), trainRounds, plainS))
	train := leaf("core.train_s", trainS, "s", fmt.Sprintf("%.0f iterations; par.train_cpu_per_wall %.2f", per(acc.iters), acc.trainCPU/acc.trainS))
	train.add(
		leaf("rl.rollout_s", rolloutS, "s", fmt.Sprintf("%.0f transitions, %.2f us each with update", transitions, (rolloutS+updateS)*1e6/transitions)),
		leaf("rl.update_s", updateS, "s", x.updateNote),
	)
	train.rest("unattributed")
	search := leaf("bo.search_s", searchS, "s", fmt.Sprintf("%.0f queries", float64(acc.spans.n["bo/query"])/n))
	search.add(
		leaf("core.eval_s", evalS, "s", fmt.Sprintf("%.0f envs, %.3f ms/env wall; %s; par.eval_cpu_per_wall %.2f", envs, evalS*1e3/envs, x.evalNote(envs), acc.evalCPU/acc.evalS)),
		leaf("bo.self_s", searchS-queryS, "s", "bo/search minus its bo/query spans"),
	)
	search.rest("unattributed")
	write := leaf("ckpt.write", writeS, "s", fmt.Sprintf("ckpt.write_ms %.3f over %.0f writes of %.0f bytes", writeS*1e3, float64(acc.spans.n["ckpt/write"])/n, per(acc.ckBytes)))
	write.add(leaf("core.save_agent", per(acc.saveS), "s", ""))
	write.rest("unattributed")
	root.add(train, search, write)
	res.set("unattributed_s", root.rest("unattributed_s"), "s")
	return res, root, nil
}
