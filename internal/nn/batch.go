package nn

import (
	"fmt"
	"math"
)

// This file implements the batched, allocation-free execution path used by
// the RL training hot loop. The memory layout convention is row-major
// [B x width]: row r of a matrix m with width w is m[r*w : (r+1)*w], one row
// per batch sample. All buffers live in a caller-owned Scratch so the steady
// state performs zero heap allocations; the GEMM-style kernels block four
// batch rows at a time, which breaks the floating-point add dependency chain
// of the naive per-sample loop and reuses each weight row across the block.
//
// Determinism: for a fixed batch the kernels accumulate in a fixed order, so
// results are bit-identical run to run. The batched *forward* additionally
// computes every output row exactly as a batch of one would — each output is
// one dot product (dotAsm or dotUnroll) plus the bias, independent of the
// other rows — so ForwardBatch over K rows is bit-identical per row to K
// ForwardBatch(1) calls. The vectorized rollout engine in internal/rl relies
// on this to keep batched action sampling bit-identical to sequential
// collection. The batched *backward* kernels still reassociate sums across
// the batch and are NOT bit-identical to the per-sample Backward oracle in
// the package tests; equivalence holds to ~1e-12 relative error and is
// pinned there.

// Scratch owns the reusable buffers for one in-flight batched
// forward/backward pass over a specific MLP architecture. A Scratch is sized
// once (growing only when a larger batch arrives), is not safe for
// concurrent use, and must not be shared between two MLPs of different
// architecture. The activations stored by ForwardBatchCache live here, so
// one Scratch supports exactly one pending BackwardBatch.
type Scratch struct {
	sizes    []int // architecture this scratch was built for
	maxBatch int
	acts     [][]float64 // acts[l]: [maxBatch x sizes[l]] row-major
	delta    []float64   // [maxBatch x maxWidth] backward workspace
	prev     []float64   // [maxBatch x maxWidth] backward workspace
	batch    int         // rows valid in acts (set by the last forward)
}

// NewScratch allocates a scratch sized for batches of up to maxBatch rows
// through m. Larger batches grow the scratch automatically.
func (m *MLP) NewScratch(maxBatch int) *Scratch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	s := &Scratch{}
	s.grow(m, maxBatch)
	return s
}

func (s *Scratch) grow(m *MLP, batch int) {
	if s.sizes != nil {
		if len(s.sizes) != len(m.sizes) {
			panic("nn: scratch used with a different architecture")
		}
		for i, v := range s.sizes {
			if v != m.sizes[i] {
				panic("nn: scratch used with a different architecture")
			}
		}
		if batch <= s.maxBatch {
			return
		}
	}
	s.sizes = m.sizes
	s.maxBatch = batch
	s.acts = make([][]float64, len(m.sizes))
	maxW := 0
	for l, w := range m.sizes {
		s.acts[l] = make([]float64, batch*w)
		if w > maxW {
			maxW = w
		}
	}
	s.delta = make([]float64, batch*maxW)
	s.prev = make([]float64, batch*maxW)
}

// ForwardBatch computes the network outputs for batch input rows packed
// row-major in x (len >= batch*InSize). The returned slice is the
// [batch x OutSize] output matrix owned by s; it is valid until the next
// forward pass through s. No heap allocation occurs once s has grown to the
// batch size.
func (m *MLP) ForwardBatch(s *Scratch, x []float64, batch int) []float64 {
	return m.ForwardBatchCache(s, x, batch)
}

// ForwardBatchCache is ForwardBatch with the additional guarantee that the
// per-layer activations are retained in s for a subsequent BackwardBatch.
// (The plain ForwardBatch shares the implementation; the two names
// document caller intent.)
func (m *MLP) ForwardBatchCache(s *Scratch, x []float64, batch int) []float64 {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: non-positive batch %d", batch))
	}
	s.grow(m, batch)
	s.batch = batch
	return m.forwardRows(s.acts, 0, x, batch)
}

// forwardRows runs the batched forward over x, writing activations into
// rows [rowOff, rowOff+batch) of the per-layer matrices acts (acts[l] is
// row-major with width sizes[l]). Returns the output rows.
func (m *MLP) forwardRows(acts [][]float64, rowOff int, x []float64, batch int) []float64 {
	in := m.InSize()
	if len(x) < batch*in {
		panic(fmt.Sprintf("nn: batch input len %d, want >= %d", len(x), batch*in))
	}
	copy(acts[0][rowOff*in:(rowOff+batch)*in], x[:batch*in])
	cur := acts[0][rowOff*in : (rowOff+batch)*in]
	last := len(m.weights) - 1
	for l, w := range m.weights {
		dout := m.sizes[l+1]
		dst := acts[l+1][rowOff*dout : (rowOff+batch)*dout]
		matmulNT(dst, cur, w, m.biases[l], batch, m.sizes[l], dout)
		if l != last {
			applyActivation(m.hidden, dst)
		}
		cur = dst
	}
	return cur
}

// BackwardBatch accumulates dLoss/dParams into grads for every row of the
// batch whose activations s retains from the preceding ForwardBatchCache.
// gradOut is the [batch x OutSize] loss gradient. It returns the
// [batch x InSize] gradient with respect to the inputs (owned by s, valid
// until the next backward pass). Gradient accumulation order is fixed for a
// given batch, so results are deterministic; they match the per-sample
// oracle in the package tests to floating-point reassociation error.
func (m *MLP) BackwardBatch(s *Scratch, gradOut []float64, grads *Grads) []float64 {
	b := s.batch
	if b == 0 {
		panic("nn: BackwardBatch without a preceding ForwardBatchCache")
	}
	return m.backwardRows(s.acts, 0, b, gradOut, s, grads, true)
}

// backwardRows runs the batched backward over rows [rowOff, rowOff+b) of the
// per-layer activation matrices acts, using ws.delta/ws.prev as workspaces.
// When wantInputGrad is false the layer-0 input-gradient GEMM — pure waste
// for callers that only train parameters — is skipped and the return value is
// nil.
func (m *MLP) backwardRows(acts [][]float64, rowOff, b int, gradOut []float64, ws *Scratch, grads *Grads, wantInputGrad bool) []float64 {
	out := m.OutSize()
	if len(gradOut) < b*out {
		panic(fmt.Sprintf("nn: gradOut len %d, want >= %d", len(gradOut), b*out))
	}
	cur := ws.delta
	nxt := ws.prev
	copy(cur[:b*out], gradOut[:b*out])
	last := len(m.weights) - 1
	for l := last; l >= 0; l-- {
		din, dout := m.sizes[l], m.sizes[l+1]
		if l != last {
			applyActivationDeriv(m.hidden, cur[:b*dout], acts[l+1][rowOff*dout:(rowOff+b)*dout])
		}
		accumGrads(grads.weights[l], grads.biases[l], cur, acts[l][rowOff*din:(rowOff+b)*din], b, din, dout)
		if l > 0 || wantInputGrad {
			backpropDelta(nxt, cur, m.weights[l], b, din, dout)
			cur, nxt = nxt, cur
		}
	}
	grads.count += b
	if !wantInputGrad {
		return nil
	}
	return cur[:b*m.InSize()]
}

// BatchCache stores the per-layer activations of a sequence of samples
// (row-major [n x sizes[l]] per layer), assembled incrementally across
// forward passes. It exists for the on-policy RL pattern where rollout
// collection already runs every forward the subsequent update needs: the
// rollout records activations here and the update replays them through
// BackwardBatchRows without recomputing a single forward — valid exactly
// while the network parameters are unchanged, which callers must guarantee
// (the rl package guards this with a parameter version counter).
type BatchCache struct {
	sizes []int
	n     int
	acts  [][]float64 // acts[l]: [cap x sizes[l]] row-major, rows [0,n) valid
}

// NewBatchCache allocates a cache for up to capacity rows through m; the
// cache grows automatically beyond that.
func (m *MLP) NewBatchCache(capacity int) *BatchCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &BatchCache{sizes: m.sizes, acts: make([][]float64, len(m.sizes))}
	for l, w := range m.sizes {
		c.acts[l] = make([]float64, capacity*w)
	}
	return c
}

// Reset discards all rows, keeping the capacity.
func (c *BatchCache) Reset() { c.n = 0 }

// Rows reports the number of recorded rows.
func (c *BatchCache) Rows() int { return c.n }

// Inputs returns the recorded layer-0 rows: the [n x InSize] input matrix.
func (c *BatchCache) Inputs() []float64 {
	return c.acts[0][:c.n*c.sizes[0]]
}

// Output returns the recorded last-layer rows: the [n x OutSize] matrix of
// pre-softmax logits / raw outputs.
func (c *BatchCache) Output() []float64 {
	return c.acts[len(c.acts)-1][:c.n*c.sizes[len(c.sizes)-1]]
}

func (c *BatchCache) checkArch(m *MLP) {
	if len(c.sizes) != len(m.sizes) {
		panic("nn: batch cache used with a different architecture")
	}
	for i, v := range c.sizes {
		if v != m.sizes[i] {
			panic("nn: batch cache used with a different architecture")
		}
	}
}

func (c *BatchCache) reserve(extra int) {
	need := c.n + extra
	have := len(c.acts[0]) / c.sizes[0]
	if need <= have {
		return
	}
	grown := 2 * have
	if grown < need {
		grown = need
	}
	for l, w := range c.sizes {
		buf := make([]float64, grown*w)
		copy(buf, c.acts[l][:c.n*w])
		c.acts[l] = buf
	}
}

// AppendScratch copies the rows of the last forward pass retained in s onto
// the end of the cache.
func (c *BatchCache) AppendScratch(s *Scratch) {
	if s.batch == 0 {
		panic("nn: AppendScratch without a preceding forward pass")
	}
	c.reserve(s.batch)
	for l, w := range c.sizes {
		copy(c.acts[l][c.n*w:(c.n+s.batch)*w], s.acts[l][:s.batch*w])
	}
	c.n += s.batch
}

// AppendScratchRow copies row r of the last forward pass retained in s onto
// the end of the cache. It is the per-slot variant of AppendScratch for the
// vectorized rollout engine: one batched forward covers many environment
// slots, and each slot's activation cache records only its own row.
func (c *BatchCache) AppendScratchRow(s *Scratch, r int) {
	if r < 0 || r >= s.batch {
		panic(fmt.Sprintf("nn: scratch row %d of %d", r, s.batch))
	}
	c.reserve(1)
	for l, w := range c.sizes {
		copy(c.acts[l][c.n*w:(c.n+1)*w], s.acts[l][r*w:(r+1)*w])
	}
	c.n++
}

// AppendCache copies all rows of o onto the end of c (used to merge per-env
// rollout caches in env index order).
func (c *BatchCache) AppendCache(o *BatchCache) {
	c.reserve(o.n)
	for l, w := range c.sizes {
		copy(c.acts[l][c.n*w:(c.n+o.n)*w], o.acts[l][:o.n*w])
	}
	c.n += o.n
}

// ForwardBatchAppend runs one batched forward over x (batch rows, packed
// row-major) and appends the resulting activations to c. It returns the
// output rows, valid until the cache next grows.
func (m *MLP) ForwardBatchAppend(c *BatchCache, x []float64, batch int) []float64 {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: non-positive batch %d", batch))
	}
	c.checkArch(m)
	c.reserve(batch)
	out := m.forwardRows(c.acts, c.n, x, batch)
	c.n += batch
	return out
}

// BackwardBatchRows accumulates dLoss/dParams into grads for rows
// [start, end) of the recorded cache, using ws for delta workspaces (ws must
// belong to the same architecture and have capacity >= end-start). Unlike
// BackwardBatch it does not compute the input gradient — rows exist to train
// parameters from recorded rollouts, and skipping the layer-0 input GEMM
// removes the single hottest kernel call of the update for nothing lost.
func (m *MLP) BackwardBatchRows(c *BatchCache, start, end int, gradOut []float64, ws *Scratch, grads *Grads) {
	if start < 0 || end > c.n || start >= end {
		panic(fmt.Sprintf("nn: bad cache row range [%d,%d) of %d", start, end, c.n))
	}
	c.checkArch(m)
	ws.grow(m, end-start)
	m.backwardRows(c.acts, start, end-start, gradOut, ws, grads, false)
}

// matmulNT computes dst = src * wᵀ + bias over batch rows: src is [b x in],
// w is the layer's flat (out x in) matrix, dst is [b x out].
//
// Every output element is computed as bias[o] + dot(weightRow, inputRow)
// with the same dot kernel a 1-row batch would use (dotAsm with AVX2+FMA,
// dotUnroll otherwise), so each row of a batched forward is bit-identical
// to the corresponding single-row forward — the property the vectorized
// rollout engine's determinism contract rests on. The scalar fallback
// iterates output-column-major so each weight row is loaded once and
// streamed across all batch rows; dotUnroll's four independent accumulators
// keep the FP pipeline busy.
func matmulNT(dst, src, w, bias []float64, b, in, out int) {
	if useASM {
		for r := 0; r < b; r++ {
			xr := src[r*in : r*in+in]
			dr := dst[r*out : r*out+out]
			for o := 0; o < out; o++ {
				dr[o] = bias[o] + dotAsm(w[o*in:o*in+in], xr)
			}
		}
		return
	}
	for o := 0; o < out; o++ {
		row := w[o*in : o*in+in]
		bo := bias[o]
		for r := 0; r < b; r++ {
			dst[r*out+o] = bo + dotUnroll(row, src[r*in:r*in+in])
		}
	}
}

// accumGrads folds one layer's batch into the weight and bias gradients:
// gw[o][i] += Σ_r delta[r][o]·x[r][i] and gb[o] += Σ_r delta[r][o].
func accumGrads(gw, gb, delta, x []float64, b, in, out int) {
	if useASM {
		for o := 0; o < out; o++ {
			grow := gw[o*in : o*in+in]
			sum := 0.0
			for r := 0; r < b; r++ {
				d := delta[r*out+o]
				sum += d
				if d != 0 {
					axpyAsm(grow, x[r*in:r*in+in], d)
				}
			}
			gb[o] += sum
		}
		return
	}
	for o := 0; o < out; o++ {
		grow := gw[o*in : o*in+in]
		sum := 0.0
		r := 0
		for ; r+4 <= b; r += 4 {
			d0 := delta[r*out+o]
			d1 := delta[(r+1)*out+o]
			d2 := delta[(r+2)*out+o]
			d3 := delta[(r+3)*out+o]
			sum += (d0 + d1) + (d2 + d3)
			x0 := x[r*in : r*in+in]
			x1 := x[(r+1)*in : (r+1)*in+in]
			x2 := x[(r+2)*in : (r+2)*in+in]
			x3 := x[(r+3)*in : (r+3)*in+in]
			for i, v0 := range x0 {
				grow[i] += d0*v0 + d1*x1[i] + d2*x2[i] + d3*x3[i]
			}
		}
		for ; r < b; r++ {
			d := delta[r*out+o]
			sum += d
			xr := x[r*in : r*in+in]
			for i, v := range xr {
				grow[i] += d * v
			}
		}
		gb[o] += sum
	}
}

// backpropDelta computes dst = delta * w over batch rows: the gradient with
// respect to the layer input, dst[r][i] = Σ_o delta[r][o]·w[o][i].
func backpropDelta(dst, delta, w []float64, b, in, out int) {
	clear(dst[:b*in])
	if useASM {
		for r := 0; r < b; r++ {
			pr := dst[r*in : r*in+in]
			for o := 0; o < out; o++ {
				d := delta[r*out+o]
				if d != 0 {
					axpyAsm(pr, w[o*in:o*in+in], d)
				}
			}
		}
		return
	}
	r := 0
	for ; r+4 <= b; r += 4 {
		p0 := dst[r*in : r*in+in]
		p1 := dst[(r+1)*in : (r+1)*in+in]
		p2 := dst[(r+2)*in : (r+2)*in+in]
		p3 := dst[(r+3)*in : (r+3)*in+in]
		for o := 0; o < out; o++ {
			row := w[o*in : o*in+in]
			d0 := delta[r*out+o]
			d1 := delta[(r+1)*out+o]
			d2 := delta[(r+2)*out+o]
			d3 := delta[(r+3)*out+o]
			for i, wv := range row {
				p0[i] += d0 * wv
				p1[i] += d1 * wv
				p2[i] += d2 * wv
				p3[i] += d3 * wv
			}
		}
	}
	for ; r < b; r++ {
		pr := dst[r*in : r*in+in]
		for o := 0; o < out; o++ {
			d := delta[r*out+o]
			if d == 0 {
				continue
			}
			row := w[o*in : o*in+in]
			for i, wv := range row {
				pr[i] += d * wv
			}
		}
	}
}

// applyActivation applies the nonlinearity elementwise.
func applyActivation(a Activation, xs []float64) {
	switch a {
	case Tanh:
		for i, v := range xs {
			xs[i] = math.Tanh(v)
		}
	case ReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = 0
			}
		}
	}
}

// applyActivationDeriv multiplies delta elementwise by dAct/dx expressed in
// terms of the activation output y (tanh and ReLU both admit this form,
// which avoids caching pre-activations).
func applyActivationDeriv(a Activation, delta, y []float64) {
	switch a {
	case Tanh:
		for i, yi := range y {
			delta[i] *= 1 - yi*yi
		}
	case ReLU:
		for i, yi := range y {
			if yi <= 0 {
				delta[i] = 0
			}
		}
	}
}

// dotUnroll is a dot product with four independent accumulators, breaking
// the add dependency chain that serializes the naive loop.
func dotUnroll(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a) && i+4 <= len(b); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
