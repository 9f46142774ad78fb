package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randBatch returns a [batch x in] row-major input matrix.
func randBatch(rng *rand.Rand, batch, in int) []float64 {
	x := make([]float64, batch*in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// maxAbsDiff returns max_i |a[i]-b[i]|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// testForwardBatchEquivalence pins the batched forward, and Forward with
// it, against the per-element scalar forward of oracle_test.go: same
// parameters, same inputs, bit-identical outputs (every output element is
// one dot product with the same kernel plus the bias).
func testForwardBatchEquivalence(t *testing.T, act Activation) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m, err := NewMLP(rng, act, 9, 16, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 5, 8, 33} {
		x := randBatch(rng, batch, m.InSize())
		s := m.NewScratch(batch)
		got := m.ForwardBatch(s, x, batch)
		for r := 0; r < batch; r++ {
			xr := x[r*m.InSize() : (r+1)*m.InSize()]
			want, _ := m.ForwardCache(xr)
			if d := maxAbsDiff(got[r*m.OutSize():(r+1)*m.OutSize()], want); d != 0 {
				t.Fatalf("batch=%d row %d: batched vs per-sample forward diff %g", batch, r, d)
			}
			if d := maxAbsDiff(m.Forward(xr), want); d != 0 {
				t.Fatalf("batch=%d row %d: Forward vs per-sample forward diff %g", batch, r, d)
			}
		}
	}
}

func TestForwardBatchMatchesPerSampleTanh(t *testing.T) { testForwardBatchEquivalence(t, Tanh) }
func TestForwardBatchMatchesPerSampleReLU(t *testing.T) { testForwardBatchEquivalence(t, ReLU) }

// testBackwardBatchEquivalence pins the batched backward (gradients and
// input gradients) against per-sample Backward accumulation.
func testBackwardBatchEquivalence(t *testing.T, act Activation) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	m, err := NewMLP(rng, act, 7, 12, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 6, 17} {
		x := randBatch(rng, batch, m.InSize())
		gradOut := randBatch(rng, batch, m.OutSize())

		s := m.NewScratch(batch)
		gBatch := m.NewGrads()
		m.ForwardBatchCache(s, x, batch)
		inGradBatch := m.BackwardBatch(s, gradOut, gBatch)

		gRef := m.NewGrads()
		inGradRef := make([]float64, batch*m.InSize())
		for r := 0; r < batch; r++ {
			_, cache := m.ForwardCache(x[r*m.InSize() : (r+1)*m.InSize()])
			ig := m.Backward(cache, gradOut[r*m.OutSize():(r+1)*m.OutSize()], gRef)
			copy(inGradRef[r*m.InSize():(r+1)*m.InSize()], ig)
		}

		if gBatch.count != gRef.count {
			t.Fatalf("batch=%d: count %d vs %d", batch, gBatch.count, gRef.count)
		}
		for l := range gBatch.weights {
			if d := maxAbsDiff(gBatch.weights[l], gRef.weights[l]); d > 1e-9 {
				t.Fatalf("batch=%d layer %d: weight grad diff %g", batch, l, d)
			}
			if d := maxAbsDiff(gBatch.biases[l], gRef.biases[l]); d > 1e-9 {
				t.Fatalf("batch=%d layer %d: bias grad diff %g", batch, l, d)
			}
		}
		if d := maxAbsDiff(inGradBatch, inGradRef); d > 1e-9 {
			t.Fatalf("batch=%d: input grad diff %g", batch, d)
		}
	}
}

func TestBackwardBatchMatchesPerSampleTanh(t *testing.T) { testBackwardBatchEquivalence(t, Tanh) }
func TestBackwardBatchMatchesPerSampleReLU(t *testing.T) { testBackwardBatchEquivalence(t, ReLU) }

// TestBackwardBatchRowsMatchesBackwardBatch checks the cache-replay backward
// (the rollout-reuse path) accumulates exactly the same parameter gradients
// as BackwardBatch over the same rows, including when the rows are split
// into shards.
func TestBackwardBatchRowsMatchesBackwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := NewMLP(rng, Tanh, 6, 10, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 21
	x := randBatch(rng, batch, m.InSize())
	gradOut := randBatch(rng, batch, m.OutSize())

	s := m.NewScratch(batch)
	gWhole := m.NewGrads()
	m.ForwardBatchCache(s, x, batch)
	m.BackwardBatch(s, gradOut, gWhole)

	c := m.NewBatchCache(batch)
	out := m.ForwardBatchAppend(c, x, batch)
	if d := maxAbsDiff(out, m.ForwardBatch(s, x, batch)); d != 0 {
		t.Fatalf("ForwardBatchAppend output differs from ForwardBatch by %g", d)
	}
	gRows := m.NewGrads()
	ws := m.NewScratch(8)
	for start := 0; start < batch; start += 8 {
		end := min(start+8, batch)
		m.BackwardBatchRows(c, start, end, gradOut[start*m.OutSize():end*m.OutSize()], ws, gRows)
	}

	if gWhole.count != gRows.count {
		t.Fatalf("count %d vs %d", gWhole.count, gRows.count)
	}
	for l := range gWhole.weights {
		if d := maxAbsDiff(gWhole.weights[l], gRows.weights[l]); d > 1e-12 {
			t.Fatalf("layer %d: weight grad diff %g between whole-batch and sharded rows", l, d)
		}
		if d := maxAbsDiff(gWhole.biases[l], gRows.biases[l]); d > 1e-12 {
			t.Fatalf("layer %d: bias grad diff %g", l, d)
		}
	}
}

// TestBackwardBatchParamsMatchesBackwardBatch pins the parameter-only pass
// the trainers run: over CC- and ABR-shaped nets (31- and 27-wide inputs
// take the kernel's masked tails), with zeroed gradOut rows as PPO's
// clipped-out samples leave them, and accumulating onto gradients that are
// already non-zero, its Grads must equal BackwardBatch's bit for bit.
func TestBackwardBatchParamsMatchesBackwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		act   Activation
		sizes []int
	}{
		{Tanh, []int{31, 64, 32, 2}},
		{Tanh, []int{27, 64, 32, 6}},
		{ReLU, []int{5, 40, 1}},
	} {
		m := MustMLP(rng, tc.act, tc.sizes...)
		for _, batch := range []int{1, 5, 64} {
			x := randBatch(rng, batch, m.InSize())
			gradOut := randBatch(rng, batch, m.OutSize())
			for r := 0; r < batch; r += 3 {
				clear(gradOut[r*m.OutSize() : (r+1)*m.OutSize()])
			}
			s := m.NewScratch(batch)
			gFull, gParams := m.NewGrads(), m.NewGrads()
			for pass := 0; pass < 2; pass++ {
				m.ForwardBatchCache(s, x, batch)
				m.BackwardBatch(s, gradOut, gFull)
				m.ForwardBatchCache(s, x, batch)
				m.BackwardBatchParams(s, gradOut, gParams)
			}
			if gFull.count != gParams.count {
				t.Fatalf("%v batch=%d: count %d vs %d", tc.sizes, batch, gFull.count, gParams.count)
			}
			for l := range gFull.weights {
				if i := firstDiff(gParams.weights[l], gFull.weights[l]); i >= 0 {
					t.Fatalf("%v batch=%d layer %d weight grad %d: BackwardBatch %v, BackwardBatchParams %v",
						tc.sizes, batch, l, i, gFull.weights[l][i], gParams.weights[l][i])
				}
				if i := firstDiff(gParams.biases[l], gFull.biases[l]); i >= 0 {
					t.Fatalf("%v batch=%d layer %d bias grad %d: BackwardBatch %v, BackwardBatchParams %v",
						tc.sizes, batch, l, i, gFull.biases[l][i], gParams.biases[l][i])
				}
			}
		}
	}
}

// TestBatchCacheAppendAndMerge checks incremental recording (AppendScratch,
// AppendCache) reproduces a one-shot batched forward exactly.
func TestBatchCacheAppendAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, err := NewMLP(rng, Tanh, 5, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10
	x := randBatch(rng, batch, m.InSize())

	s := m.NewScratch(batch)
	want := append([]float64(nil), m.ForwardBatch(s, x, batch)...)

	// Record one row at a time into two caches, then merge.
	one := m.NewScratch(1)
	a := m.NewBatchCache(1) // deliberately undersized: growth must work
	b := m.NewBatchCache(4)
	for r := 0; r < batch; r++ {
		m.ForwardBatch(one, x[r*m.InSize():(r+1)*m.InSize()], 1)
		if r < 4 {
			a.AppendScratch(one)
		} else {
			b.AppendScratch(one)
		}
	}
	merged := m.NewBatchCache(2)
	merged.AppendCache(a)
	merged.AppendCache(b)
	if merged.Rows() != batch {
		t.Fatalf("merged rows = %d, want %d", merged.Rows(), batch)
	}
	if d := maxAbsDiff(merged.Inputs(), x); d != 0 {
		t.Fatalf("merged inputs differ by %g", d)
	}
	if d := maxAbsDiff(merged.Output(), want); d != 0 {
		t.Fatalf("merged outputs differ from one-shot batched forward by %g", d)
	}
}

// TestBatchedPathsAllocationFree verifies the steady-state batched kernels
// and the single-row ForwardInto perform zero heap allocations once
// scratch and grads are warm.
func TestBatchedPathsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m, err := NewMLP(rng, Tanh, 8, 16, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	x := randBatch(rng, batch, m.InSize())
	gradOut := randBatch(rng, batch, m.OutSize())
	s := m.NewScratch(batch)
	g := m.NewGrads()
	c := m.NewBatchCache(batch)
	m.ForwardBatchAppend(c, x, batch)

	if n := testing.AllocsPerRun(50, func() {
		m.ForwardBatchCache(s, x, batch)
		m.BackwardBatch(s, gradOut, g)
	}); n != 0 {
		t.Fatalf("ForwardBatchCache+BackwardBatch allocate %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		m.ForwardBatchCache(s, x, batch)
		m.BackwardBatchParams(s, gradOut, g)
	}); n != 0 {
		t.Fatalf("ForwardBatchCache+BackwardBatchParams allocate %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		m.BackwardBatchRows(c, 0, batch, gradOut, s, g)
	}); n != 0 {
		t.Fatalf("BackwardBatchRows allocates %v per run", n)
	}
	out := make([]float64, m.OutSize())
	if n := testing.AllocsPerRun(50, func() {
		m.ForwardInto(out, x[:m.InSize()])
	}); n != 0 {
		t.Fatalf("ForwardInto allocates %v per run", n)
	}
}

// TestForwardIntoStackAndFreeListPaths runs ForwardInto on a network within
// its stack bounds and on two past them (too wide, too deep), which take the
// scratch free list instead: each output must equal the same row of a
// batched forward bit for bit, and neither path may allocate once warm.
func TestForwardIntoStackAndFreeListPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		sizes    []int
		freeList bool
	}{
		{[]int{27, 64, 32, 6}, false},            // the ABR actor: on the stack
		{[]int{40, 200, 100, 3}, true},           // 343 floats: past stackActs
		{[]int{4, 4, 4, 4, 4, 4, 4, 4, 4}, true}, // 8 weight layers: past stackLayers
	} {
		sizes := tc.sizes
		m, err := NewMLP(rng, Tanh, sizes...)
		if err != nil {
			t.Fatal(err)
		}
		const batch = 5
		x := randBatch(rng, batch, m.InSize())
		want := m.ForwardBatch(m.NewScratch(batch), x, batch)
		out := make([]float64, m.OutSize())
		for r := 0; r < batch; r++ {
			m.ForwardInto(out, x[r*m.InSize():(r+1)*m.InSize()])
			for o, v := range out {
				if w := want[r*m.OutSize()+o]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("sizes %v row %d out %d: ForwardInto %v, ForwardBatch %v", sizes, r, o, v, w)
				}
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			m.ForwardInto(out, x[:m.InSize()])
		}); n != 0 {
			t.Fatalf("sizes %v: ForwardInto allocates %v per run", sizes, n)
		}
		if got := len(m.free) > 0; got != tc.freeList {
			t.Fatalf("sizes %v: used the scratch free list = %v, want %v", sizes, got, tc.freeList)
		}
	}
}

// TestScratchArchitectureMismatchPanics pins the guard against reusing a
// scratch across different network shapes.
func TestScratchArchitectureMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m1, _ := NewMLP(rng, Tanh, 4, 6, 2)
	m2, _ := NewMLP(rng, Tanh, 4, 7, 2)
	s := m1.NewScratch(2)
	defer func() {
		if recover() == nil {
			t.Fatal("scratch reuse across architectures did not panic")
		}
	}()
	m2.ForwardBatch(s, make([]float64, 8), 2)
}
