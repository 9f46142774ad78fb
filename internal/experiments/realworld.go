package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/trace"
)

func init() {
	register("fig16", "emulated real-world paths: ABR (5 paths, Table 6) and CC (3 paths, Table 7)", runFig16)
	register("table6", "alias for fig16, run whole: its abr rows are Table 6", runFig16)
	register("table7", "alias for fig16, run whole: its cc rows are Table 7", runFig16)
}

// pathProfile is an emulated wide-area path (the substitution for the
// paper's OpenNetLab testbed): a bandwidth regime plus link parameters.
type pathProfile struct {
	name           string
	baseBW         float64 // Mbps
	relStd         float64 // relative bandwidth fluctuation
	changeEvery    float64 // seconds
	rttMs          float64
	queuePkts      float64 // core.CC only
	lossRate       float64 // core.CC only
	fadeProb       float64
	outOfTraining  bool // marks the paper's known failure cases
	expectGenetWin bool
}

// abrPaths mirrors Fig 16(a): five paths from wired-wired to cloud-wifi.
// Path 2's bandwidth is always far above the top bitrate, leaving no
// headroom for improvement, as the paper observes.
var abrPaths = []pathProfile{
	{name: "path1-wired-wired", baseBW: 20, relStd: 0.05, changeEvery: 10, rttMs: 20, expectGenetWin: true},
	{name: "path2-wired-wifi", baseBW: 40, relStd: 0.10, changeEvery: 5, rttMs: 30, expectGenetWin: false},
	{name: "path3-wired-cellular", baseBW: 2.5, relStd: 0.40, changeEvery: 3, rttMs: 120, fadeProb: 0.1, expectGenetWin: true},
	{name: "path4-cloud-wifi", baseBW: 5, relStd: 0.25, changeEvery: 5, rttMs: 150, expectGenetWin: true},
	{name: "path5-cloud-wifi", baseBW: 3, relStd: 0.35, changeEvery: 4, rttMs: 200, fadeProb: 0.05, expectGenetWin: true},
}

// ccPaths mirrors Fig 16(b): path 3 has a far deeper queue than the
// training range, the paper's out-of-training failure case where
// Genet-trained CC loses.
var ccPaths = []pathProfile{
	{name: "path1-wired-wired", baseBW: 80, relStd: 0.05, changeEvery: 10, rttMs: 40, queuePkts: 100, lossRate: 0.005, expectGenetWin: true},
	{name: "path2-wired-cellular", baseBW: 0.8, relStd: 0.5, changeEvery: 2, rttMs: 300, queuePkts: 50, lossRate: 0.02, fadeProb: 0.15, expectGenetWin: true},
	{name: "path3-wired-wifi", baseBW: 10, relStd: 0.15, changeEvery: 5, rttMs: 60, queuePkts: 2000, lossRate: 0, outOfTraining: true, expectGenetWin: false},
}

// pathTrace synthesizes a bandwidth trace for a path profile.
func pathTrace(p pathProfile, duration float64, rng *rand.Rand) *trace.Trace {
	spec := trace.SetSpec{
		Name: p.name, MeanDuration: duration,
		BaseBWLow: p.baseBW * 0.9, BaseBWHigh: p.baseBW * 1.1,
		RelStd: p.relStd, ChangeEvery: p.changeEvery,
		FadeProb: p.fadeProb, FadeDepth: 0.2,
	}
	return trace.GenerateSet(spec, 1, rng).Traces[0]
}

// runFig16 reproduces Fig 16 and Tables 6-7 on emulated path profiles.
func runFig16(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "fig16",
		Title:   "emulated real-world paths (Tables 6 and 7 breakdowns)",
		Columns: []string{"reward", "metric_bitrate_or_tput", "metric_rebuf_or_p90lat", "metric_change_or_loss"},
	}
	runs := 3 + 2*int(b.stepMult) // repetitions per path ("at least five times" at full scale)

	// ABR: Genet(MPC) vs MPC vs BBA.
	genetABR, err := b.train(core.ABR, "genet", seed, nil)
	if err != nil {
		return nil, err
	}
	abrAgent := core.AgentOf(genetABR).Discrete
	abrPolicies := map[string]abr.Policy{
		"MPC":   abr.NewRobustMPC(),
		"BBA":   &abr.BBA{},
		"Genet": &abr.AgentPolicy{Agent: abrAgent, Label: "Genet"},
	}
	abrCfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	for _, p := range abrPaths {
		cfg := abrCfg.With(env.ABRMinRTT, p.rttMs)
		for _, name := range []string{"MPC", "BBA", "Genet"} {
			var rewards, bitrates, rebufs, changes []float64
			for r := 0; r < runs; r++ {
				rng := rand.New(rand.NewSource(seed + int64(r)*17))
				tr := pathTrace(p, 400, rng)
				inst, err := abr.NewInstance(cfg, tr, rng)
				if err != nil {
					return nil, err
				}
				m := inst.Evaluate(abrPolicies[name])
				rewards = append(rewards, m.MeanReward)
				bitrates = append(bitrates, m.MeanBitrate)
				rebufs = append(rebufs, m.TotalRebuffer)
				changes = append(changes, m.MeanChange)
			}
			res.AddRow(fmt.Sprintf("abr-%s-%s", p.name, name),
				meanOf(rewards), meanOf(bitrates), meanOf(rebufs), meanOf(changes))
		}
	}

	// CC: Genet(BBR) vs BBR vs Cubic.
	genetCC, err := b.train(core.CC, "genet", seed+1, nil)
	if err != nil {
		return nil, err
	}
	ccAgent := core.AgentOf(genetCC).Gaussian
	ccSenders := map[string]func() cc.Sender{
		"BBR":   func() cc.Sender { return cc.NewBBR() },
		"Cubic": func() cc.Sender { return cc.NewCubic() },
		"Genet": func() cc.Sender { return &cc.AgentSender{Agent: ccAgent} },
	}
	for _, p := range ccPaths {
		for _, name := range []string{"BBR", "Cubic", "Genet"} {
			var rewards, tputs, lats, losses []float64
			for r := 0; r < runs; r++ {
				rng := rand.New(rand.NewSource(seed + 900 + int64(r)*17))
				tr := pathTrace(p, cc.EpisodeDuration, rng)
				inst := &cc.Instance{
					Trace: tr,
					Link: cc.LinkParams{
						OneWayDelayMs: p.rttMs / 2,
						QueuePackets:  p.queuePkts,
						RandomLoss:    p.lossRate,
					},
					Duration: cc.EpisodeDuration,
				}
				m := inst.Evaluate(ccSenders[name](), rand.New(rand.NewSource(seed+int64(r))))
				rewards = append(rewards, m.MeanReward)
				tputs = append(tputs, m.MeanThroughput)
				lats = append(lats, m.P90Latency)
				losses = append(losses, m.LossRate)
			}
			res.AddRow(fmt.Sprintf("cc-%s-%s", p.name, name),
				meanOf(rewards), meanOf(tputs), meanOf(lats), meanOf(losses))
		}
	}
	res.Note("abr path2's bandwidth always exceeds the top bitrate: expect no Genet headroom there (paper's observation)")
	res.Note("cc path3 has a queue far deeper than the training range: expect Genet to lose there (the paper's out-of-range failure case)")
	return res, nil
}
