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

// TestTanhKernelQuadRegimes covers tanhAsm's per-quad branch skip: quads
// whose lanes all take the rational branch (|x| < 0.625), all take the exp
// branch or beyond (|x| >= 0.625), or mix them, each with a branch edge or
// an IEEE special at every lane position.
func TestTanhKernelQuadRegimes(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	below := []float64{0.1, -0.3, 0.6, math.Nextafter(-0.625, 0)}
	above := []float64{0.625, -1.5, 30, -0.5 * maxLog}
	mixed := []float64{0.2, -2, math.Nextafter(0.625, 0), 50}
	specials := []float64{
		0.625, -0.625, 0.5 * maxLog, math.Nextafter(0.5*maxLog, math.Inf(1)),
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, quad := range [][]float64{below, above, mixed} {
		checkTanhLanes(t, quad)
		for _, v := range specials {
			for lane := 0; lane < 4; lane++ {
				// Two quads, so a skipped branch in the first cannot leave
				// stale registers that the second picks up unnoticed.
				xs := append(append([]float64(nil), quad...), quad...)
				xs[lane] = v
				xs[4+(lane+1)%4] = -v
				checkTanhLanes(t, xs)
			}
		}
	}
	// Every ordered pair of regimes back to back.
	for _, a := range [][]float64{below, above, mixed} {
		for _, b := range [][]float64{below, above, mixed} {
			checkTanhLanes(t, append(append([]float64(nil), a...), b...))
		}
	}
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

// axpySpecials are the d values on which axpyRowsAsm must decide as Go's
// d != 0 does: ±0 skipped; NaN, ±Inf and subnormals not.
func axpySpecials() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -0x1p-1070, 0x1p-1022 - 0x1p-1074, 1, -0.5,
	}
}

// firstDiff returns the first index at which got and want differ in bits,
// or -1.
func firstDiff(got, want []float64) int {
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			return i
		}
	}
	return -1
}

// checkAxpyRows runs axpyRowsAsm and its math.FMA oracle from the same dst
// and fails on the first lane whose bits differ (any NaN matches any NaN:
// the payload is the hardware's choice) or on a write past len(dst).
func checkAxpyRows(t *testing.T, dst, x, d []float64, in, dstride, n int) {
	t.Helper()
	w := len(dst)
	got := append(append([]float64(nil), dst...), 42)
	want := append([]float64(nil), dst...)
	axpyRowsAsm(got[:w], x, d, in, dstride, n)
	axpyRows(want, x, d, in, dstride, n)
	if got[w] != 42 {
		t.Fatalf("width=%d n=%d: axpyRowsAsm wrote past len(dst)", w, n)
	}
	for i, v := range want {
		if math.IsNaN(v) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("width=%d in=%d dstride=%d n=%d lane %d: axpyRowsAsm %v [%#016x], math.FMA loop %v [%#016x]",
				w, in, dstride, n, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

// TestAxpyRowsMatchesOracle covers every tail shape (widths 1-70 span the
// 32-wide tiles, the 17-31 and 1-16 lane tails), strided d (accumGrads'
// column walk; stride 0 is its bias sum) and padded x rows. dst is seeded
// with -0 on every other lane, which a zero d that was not skipped would
// turn into +0.
func TestAxpyRowsMatchesOracle(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(4))
	sp := axpySpecials()
	for width := 1; width <= 70; width++ {
		for _, n := range []int{0, 1, 2, 3, 7, 64} {
			for _, dstride := range []int{0, 1, 5} {
				for _, in := range []int{width, width + 3} {
					var x, d []float64
					if n > 0 {
						x = make([]float64, (n-1)*in+width)
						d = make([]float64, (n-1)*dstride+1)
					}
					for i := range x {
						x[i] = rng.NormFloat64()
						if rng.Intn(64) == 0 {
							x[i] = sp[rng.Intn(len(sp))]
						}
					}
					for i := range d {
						d[i] = rng.NormFloat64()
						if rng.Intn(3) == 0 {
							d[i] = sp[rng.Intn(len(sp))]
						}
					}
					dst := make([]float64, width)
					for i := range dst {
						dst[i] = math.Copysign(0, -1)
						if i%2 == 1 {
							dst[i] = rng.NormFloat64()
						}
					}
					checkAxpyRows(t, dst, x, d, in, dstride, n)
				}
			}
		}
	}
}

// TestGradKernelsMatchOracle holds accumGrads and backpropDelta to their
// one-row-axpy loops bit for bit, at the CC and ABR layer shapes and with
// zero deltas in the batch.
func TestGradKernelsMatchOracle(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][2]int{{31, 32}, {32, 16}, {16, 1}, {27, 64}, {64, 32}, {32, 6}, {70, 40}} {
		in, out := sh[0], sh[1]
		for _, b := range []int{1, 7, 64} {
			x := make([]float64, b*in)
			w := make([]float64, out*in)
			delta := make([]float64, b*out)
			for _, v := range [][]float64{x, w, delta} {
				for i := range v {
					v[i] = rng.NormFloat64()
				}
			}
			for i := range delta {
				if rng.Intn(4) == 0 {
					delta[i] = math.Copysign(0, float64(rng.Intn(2)-1))
				}
			}
			gw, gb := make([]float64, out*in), make([]float64, out)
			for i := range gw {
				gw[i] = rng.NormFloat64()
			}
			wantW, wantB := append([]float64(nil), gw...), append([]float64(nil), gb...)
			accumGrads(gw, gb, delta, x, b, in, out)
			accumGradsFMA(wantW, wantB, delta, x, b, in, out)
			if i := firstDiff(gw, wantW); i >= 0 {
				t.Fatalf("in=%d out=%d b=%d: accumGrads gw[%d] = %v, oracle %v", in, out, b, i, gw[i], wantW[i])
			}
			if i := firstDiff(gb, wantB); i >= 0 {
				t.Fatalf("in=%d out=%d b=%d: accumGrads gb[%d] = %v, oracle %v", in, out, b, i, gb[i], wantB[i])
			}
			got, want := make([]float64, b*in), make([]float64, b*in)
			backpropDelta(got, delta, w, b, in, out)
			backpropDeltaFMA(want, delta, w, b, in, out)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("in=%d out=%d b=%d: backpropDelta[%d] = %v, oracle %v", in, out, b, i, got[i], want[i])
			}
		}
	}
}

func FuzzAxpyRows(f *testing.F) {
	if !useASM {
		f.Skip("no AVX2+FMA kernels on this CPU")
	}
	sp := axpySpecials()
	widths := []uint8{1, 3, 4, 15, 16, 17, 27, 31, 32, 33, 48, 64, 70}
	for i, v := range sp {
		f.Add(math.Float64bits(v), math.Float64bits(sp[(i+3)%len(sp)]), widths[i%len(widths)], uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b uint64, width, rows uint8) {
		w, n := int(width)%70+1, int(rows)%9
		p, q := math.Float64frombits(a), math.Float64frombits(b)
		vals := []float64{p, q, -p, q / 2, p * 0.25, -q, 1, 0, math.Copysign(0, -1)}
		in, dstride := w+1, 2
		x := make([]float64, n*in)
		d := make([]float64, n*dstride)
		dst := make([]float64, w)
		for i := range x {
			x[i] = vals[(3*i+1)%len(vals)]
		}
		for i := range d {
			d[i] = vals[(5*i)%len(vals)]
		}
		for i := range dst {
			dst[i] = math.Copysign(0, -1)
			if i%3 == 2 {
				dst[i] = vals[i%len(vals)]
			}
		}
		checkAxpyRows(t, dst, x, d, in, dstride, n)
	})
}

// adamSpecials are the g, m and v values on which adamAsm must round as
// adamScalar does: ±0, NaNs (with payloads), ±Inf, subnormals and the
// normal range.
func adamSpecials() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -0x1p-1070, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		1, -0.5, 1e-8, 3e300, -1e154, math.MaxFloat64,
	}
}

// checkAdam runs adamUpdate (adamAsm on the len&^3 prefix, adamScalar on
// the tail) and adamScalar over the whole from the same state, and fails on
// the first entry of p, m or v whose bits differ, NaN payloads included.
func checkAdam(t *testing.T, p, g, m, v []float64, lr float64, step int) {
	t.Helper()
	const b1, b2, eps = 0.9, 0.999, 1e-8
	c1, c2 := adamCorrections(b1, b2, step)
	cp := func(xs []float64) []float64 { return append([]float64(nil), xs...) }
	gp, gm, gv := cp(p), cp(m), cp(v)
	wp, wm, wv := cp(p), cp(m), cp(v)
	adamUpdate(gp, g, gm, gv, lr, b1, b2, eps, c1, c2)
	adamScalar(wp, g, wm, wv, lr, b1, b2, eps, c1, c2)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"p", gp, wp}, {"m", gm, wm}, {"v", gv, wv}} {
		if i := firstDiff(c.got, c.want); i >= 0 {
			t.Fatalf("len %d t=%d lr=%v: %s[%d] = %v [%#016x], scalar %v [%#016x] (g %v, m %v, v %v)",
				len(g), step, lr, c.name, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]), g[i], m[i], v[i])
		}
	}
}

// TestAdamKernelMatchesScalar holds adamAsm to adamScalar bit for bit over
// lengths 0-70 (every tail), at the first step and at steps where the bias
// corrections have reached 1, with specials mixed into g, m and v.
func TestAdamKernelMatchesScalar(t *testing.T) {
	if !useASM {
		t.Skip("no AVX2+FMA kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(6))
	sp := adamSpecials()
	for n := 0; n <= 70; n++ {
		for _, step := range []int{1, 2, 37, 100000, 1 << 40} {
			// A special replaces each g, m and v entry with chance 1/rate
			// (rate 0: none).
			for _, rate := range []int{0, 4, 1} {
				p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for i := 0; i < n; i++ {
					p[i], g[i] = rng.NormFloat64(), rng.NormFloat64()*1e-2
					m[i], v[i] = rng.NormFloat64()*1e-3, rng.Float64()*1e-4
					for _, x := range []*float64{&g[i], &m[i], &v[i]} {
						if rate > 0 && rng.Intn(rate) == 0 {
							*x = sp[rng.Intn(len(sp))]
						}
					}
				}
				checkAdam(t, p, g, m, v, 3e-4, step)
			}
		}
	}
}

func FuzzAdamKernel(f *testing.F) {
	if !useASM {
		f.Skip("no AVX2+FMA kernels on this CPU")
	}
	sp := adamSpecials()
	for i, x := range sp {
		f.Add(math.Float64bits(x), math.Float64bits(sp[(i+5)%len(sp)]), math.Float64bits(sp[(i+11)%len(sp)]), uint16(1+i*i*i))
	}
	f.Fuzz(func(t *testing.T, a, b, c uint64, step uint16) {
		x, y, z := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		vals := []float64{x, y, z, -x, y / 3, z * z, 1e-3, 0, math.Copysign(0, -1), x * y}
		// Eleven entries: two quads and a three-entry tail.
		p, g, m, v := make([]float64, 11), make([]float64, 11), make([]float64, 11), make([]float64, 11)
		for i := range g {
			p[i] = vals[(7*i+3)%len(vals)]
			g[i] = vals[i%len(vals)]
			m[i] = vals[(3*i+1)%len(vals)]
			v[i] = vals[(5*i+2)%len(vals)]
		}
		checkAdam(t, p, g, m, v, 1e-3, int(step)+1)
	})
}
