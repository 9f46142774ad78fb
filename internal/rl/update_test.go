package rl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/nn"
)

// gradsLike returns a gradient shaped like g whose entries are draw().
func gradsLike(g *nn.Grads, draw func() float64) *nn.Grads {
	w := g.Wire()
	for _, rows := range [][][]float64{w.Weights, w.Biases} {
		for _, row := range rows {
			for i := range row {
				row[i] = draw()
			}
		}
	}
	w.Count = 3
	return nn.GradsFromWire(w)
}

// sameGradBits fails unless got and want hold the same count and the same
// bits in every entry (so −0 differs from +0).
func sameGradBits(t *testing.T, what string, got, want *nn.Grads) {
	t.Helper()
	gw, ww := got.Wire(), want.Wire()
	if gw.Count != ww.Count {
		t.Fatalf("%s: count %d, want %d", what, gw.Count, ww.Count)
	}
	for _, p := range [][2][][]float64{{gw.Weights, ww.Weights}, {gw.Biases, ww.Biases}} {
		for l := range p[1] {
			for i, v := range p[1][l] {
				if math.Float64bits(p[0][l][i]) != math.Float64bits(v) {
					t.Fatalf("%s: layer %d entry %d = %v [%#016x], want %v [%#016x]",
						what, l, i, p[0][l][i], math.Float64bits(p[0][l][i]), v, math.Float64bits(v))
				}
			}
		}
	}
}

// TestFoldMatchesZeroAdd checks the shard fold against zeroing the sum and
// adding each shard, bit for bit: with one shard, the one-pass fold of
// every PPO minibatch, and with two. The shard gradients carry −0 (which
// the sum turns into +0), NaN and ±Inf, and the sum starts out stale.
func TestFoldMatchesZeroAdd(t *testing.T) {
	a, err := NewGaussianAgent(DefaultGaussianConfig(3, 1), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	specials := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	a.ensureShards(2)
	for si := 0; si < 2; si++ {
		a.pShards[si].grads = gradsLike(a.pGrads, draw)
		a.vShards[si].grads = gradsLike(a.vGrads, draw)
	}
	for k := 1; k <= 2; k++ {
		a.pGrads = gradsLike(a.pGrads, func() float64 { return 7 })
		a.vGrads = gradsLike(a.vGrads, func() float64 { return 7 })
		var stats UpdateStats
		var loss float64
		a.foldPolicy(k, &stats, nil)
		a.foldValue(k, &loss)
		wantP, wantV := a.policy.NewGrads(), a.value.NewGrads()
		for si := 0; si < k; si++ {
			wantP.Add(a.pShards[si].grads)
			wantV.Add(a.vShards[si].grads)
		}
		sameGradBits(t, "policy fold", a.pGrads, wantP)
		sameGradBits(t, "value fold", a.vGrads, wantV)
	}
}

// TestClipPolicyNormMatchesSecondPass checks that the post-clip norm
// clipPolicy returns has the bits of a fresh GlobalNorm pass over the
// clipped gradient, both when the clip rescales and when it does not.
func TestClipPolicyNormMatchesSecondPass(t *testing.T) {
	a, err := NewGaussianAgent(DefaultGaussianConfig(3, 1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.clipNorm <= 0 {
		t.Fatalf("clipNorm = %v, want a clip", a.clipNorm)
	}
	rng := rand.New(rand.NewSource(8))
	for _, scale := range []float64{1e-3, 1e3} {
		a.pGrads = gradsLike(a.pGrads, func() float64 { return rng.NormFloat64() * scale })
		before := a.pGrads.Wire()
		pre := a.pGrads.GlobalNorm()
		got := a.clipPolicy()
		want := a.pGrads.GlobalNorm()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scale %v: clipPolicy returned %v, a second pass gives %v", scale, got, want)
		}
		if clipped := pre > a.clipNorm; clipped != (scale > 1) {
			t.Fatalf("scale %v: pre-clip norm %v against clip %v does not exercise the intended branch", scale, pre, a.clipNorm)
		}
		if pre <= a.clipNorm {
			sameGradBits(t, "unclipped gradient", a.pGrads, nn.GradsFromWire(before))
		}
	}
}
