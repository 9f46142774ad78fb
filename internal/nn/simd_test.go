package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The asm kernels promise bit identity with a scalar reference, not
// closeness: tanhAsm with math.Tanh and dotRowsAsm with dotAsm row by row.
// These tests hold them to it; any mismatch moves every training golden.
// tanhAsm replays math.tanh as the toolchain compiles it, with unfused
// multiplies and adds in the rational branch; a toolchain that fused them
// would fail here first.

const maxLog = 8.8029691931113054295988e+01 // math.tanh's MAXLOG

// tanhSpecials are math.tanh's branch edges and IEEE specials.
func tanhSpecials() []float64 {
	var xs []float64
	for _, v := range []float64{
		0, 0.625, 0.5 * maxLog, 1, 0.5, 20, 1e-300,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		math.MaxFloat64, math.Inf(1),
	} {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			xs = append(xs, w, -w)
		}
	}
	return append(xs, math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000001))
}

func sameTanh(got, x float64) bool {
	want := math.Tanh(x)
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkTanhLanes runs tanhAsm over xs (whose length need not be a multiple
// of four) and reports the first lane that differs from math.Tanh.
func checkTanhLanes(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	tanhAsm(got)
	n := len(xs) &^ 3
	for i, x := range xs {
		if i >= n {
			if math.Float64bits(got[i]) != math.Float64bits(x) {
				t.Fatalf("tanhAsm wrote lane %d past len&^3 = %d", i, n)
			}
			continue
		}
		if !sameTanh(got[i], x) {
			t.Fatalf("tanhAsm(%v [%#016x]) = %v [%#016x], math.Tanh = %v [%#016x]",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), math.Tanh(x), math.Float64bits(math.Tanh(x)))
		}
	}
}

func TestTanhKernelMatchesMathTanh(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	checkTanhLanes(t, tanhSpecials())
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16+3)
	for pass := 0; pass < 8; pass++ {
		for i := range xs {
			switch i % 4 {
			case 0: // arbitrary bit patterns: every exponent, NaNs included
				xs[i] = math.Float64frombits(rng.Uint64())
			case 1: // the rational branch
				xs[i] = (2*rng.Float64() - 1) * 0.7
			case 2: // the exp branch and past it
				xs[i] = (2*rng.Float64() - 1) * 50
			default: // hidden-layer pre-activations
				xs[i] = rng.NormFloat64() * 3
			}
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		checkTanhLanes(t, xs)
	}
}

func FuzzTanhKernel(f *testing.F) {
	if !useASM {
		f.Skip("no AVX2+FMA kernels on this CPU")
	}
	sp := tanhSpecials()
	for i := 0; i+1 < len(sp); i += 2 {
		f.Add(math.Float64bits(sp[i]), math.Float64bits(sp[i+1]))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		checkTanhLanes(t, []float64{x, y, -x, y / 2, x * 0.25, -y, 1})
	})
}

func TestApplyActivationTanhMatchesMathTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 9; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 2
		}
		got := append([]float64(nil), xs...)
		applyActivation(Tanh, got)
		for i, x := range xs {
			if !sameTanh(got[i], x) {
				t.Fatalf("len %d lane %d: applyActivation gave %v, math.Tanh(%v) = %v", n, i, got[i], x, math.Tanh(x))
			}
		}
	}
}

func TestDotRowsMatchesDot(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(3))
	for in := 1; in <= 70; in++ {
		for rows := 1; rows <= 7; rows++ {
			w := make([]float64, rows*in)
			x := make([]float64, in)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			for i := range x {
				x[i] = rng.NormFloat64() * 10
			}
			// A guard cell past the rows catches a write beyond len(dst).
			dst := make([]float64, rows+1)
			dst[rows] = 42
			dotRowsAsm(dst[:rows], w, x, in)
			if dst[rows] != 42 {
				t.Fatalf("in=%d rows=%d: dotRowsAsm wrote past len(dst)", in, rows)
			}
			for o := 0; o < rows; o++ {
				want := dotAsm(w[o*in:o*in+in], x)
				if math.Float64bits(dst[o]) != math.Float64bits(want) {
					t.Fatalf("in=%d rows=%d row %d: dotRowsAsm %v, dotAsm %v", in, rows, o, dst[o], want)
				}
			}
		}
	}
}
