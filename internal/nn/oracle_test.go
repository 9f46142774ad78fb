package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// This file holds the single-sample path: a per-element scalar forward
// that keeps its activations, backpropagation over them, plain SGD, a
// finite-difference gradient check and a gob round trip for one network.
// No production code runs one sample at a time (inference is a width-1
// ForwardBatch); the path stays here as the straightforward reference the
// batched kernels are checked against.

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// dot is the dispatching dot product of the scalar forward: the kernel
// matmulNT runs per output element, so the two forwards agree bit for bit.
func dot(a, b []float64) float64 {
	if useASM && len(b) >= len(a) {
		return dotAsm(a, b)
	}
	return dotUnroll(a, b)
}

// axpyRows is axpyRowsAsm's reference: n one-row axpys in order, each
// element one math.FMA (exactly what VFMADD231PD/SD compute), skipping a row
// whose d == 0 as the Go loops it replaced did. ±0 is skipped, NaN is not.
func axpyRows(dst, x, d []float64, in, dstride, n int) {
	for k := 0; k < n; k++ {
		dk := d[k*dstride]
		if dk == 0 {
			continue
		}
		xr := x[k*in : k*in+len(dst)]
		for i, v := range xr {
			dst[i] = math.FMA(dk, v, dst[i])
		}
	}
}

// accumGradsFMA and backpropDeltaFMA are the asm paths of accumGrads and
// backpropDelta as one-row axpys over math.FMA, in the loop order the
// kernels had before axpyRowsAsm blocked them: per output, the rows in
// order (bias sum included), and per row, the outputs in order.
func accumGradsFMA(gw, gb, delta, x []float64, b, in, out int) {
	for o := 0; o < out; o++ {
		sum := 0.0
		for r := 0; r < b; r++ {
			d := delta[r*out+o]
			sum += d
			axpyRows(gw[o*in:o*in+in], x[r*in:], []float64{d}, in, 0, 1)
		}
		gb[o] += sum
	}
}

func backpropDeltaFMA(dst, delta, w []float64, b, in, out int) {
	clear(dst[:b*in])
	for r := 0; r < b; r++ {
		for o := 0; o < out; o++ {
			axpyRows(dst[r*in:r*in+in], w[o*in:], delta[r*out+o:], in, 0, 1)
		}
	}
}

// derivFromOutput returns dActivation/dx given the activation *output* y
// (both tanh and ReLU admit this form, which avoids caching pre-activations).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.weights) }

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l]) + len(m.biases[l])
	}
	return n
}

// Count returns the number of accumulated samples since Zero.
func (g *Grads) Count() int { return g.count }

// Cache stores per-layer activations from a forward pass for use by
// Backward. acts[0] is the input; acts[l+1] the output of layer l after
// its activation.
type Cache struct {
	acts [][]float64
}

// ForwardCache computes the output one element at a time — bias plus one
// dot product, then the activation — and retains the intermediate
// activations so Backward can compute gradients. It is the reference the
// batched forward, and so Forward, must match bit for bit.
func (m *MLP) ForwardCache(x []float64) ([]float64, *Cache) {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InSize()))
	}
	c := &Cache{acts: [][]float64{append([]float64(nil), x...)}}
	cur := x
	last := len(m.weights) - 1
	for l, w := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		next := make([]float64, out)
		for o := 0; o < out; o++ {
			sum := m.biases[l][o] + dot(w[o*in:(o+1)*in], cur)
			if l != last {
				sum = m.hidden.apply(sum)
			}
			next[o] = sum
		}
		cur = next
		c.acts = append(c.acts, cur)
	}
	return cur, c
}

// Backward accumulates dLoss/dParams into grads for one sample, given the
// cache from ForwardCache and the gradient of the loss with respect to the
// network output. It returns the gradient of the loss with respect to the
// network input.
func (m *MLP) Backward(c *Cache, gradOut []float64, grads *Grads) []float64 {
	if len(gradOut) != m.OutSize() {
		panic(fmt.Sprintf("nn: gradOut size %d, want %d", len(gradOut), m.OutSize()))
	}
	delta := append([]float64(nil), gradOut...)
	for l := len(m.weights) - 1; l >= 0; l-- {
		in := m.sizes[l]
		input := c.acts[l]
		output := c.acts[l+1]
		if l != len(m.weights)-1 {
			for o := range delta {
				delta[o] *= m.hidden.derivFromOutput(output[o])
			}
		}
		w := m.weights[l]
		gw := grads.weights[l]
		gb := grads.biases[l]
		prev := make([]float64, in)
		for o, d := range delta {
			gb[o] += d
			row := w[o*in : (o+1)*in]
			grow := gw[o*in : (o+1)*in]
			for i, v := range input {
				grow[i] += d * v
				prev[i] += d * row[i]
			}
		}
		delta = prev
	}
	grads.count++
	return delta
}

// CopyFrom overwrites m's parameters with src's. The architectures must
// match.
func (m *MLP) CopyFrom(src *MLP) error {
	if len(m.sizes) != len(src.sizes) {
		return errors.New("nn: CopyFrom architecture mismatch")
	}
	for i := range m.sizes {
		if m.sizes[i] != src.sizes[i] {
			return errors.New("nn: CopyFrom architecture mismatch")
		}
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
	return nil
}

// Save serializes the network with gob in the wire layout of MLPWire.
func (m *MLP) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m.Wire())
}

// Load deserializes a network saved with Save.
func Load(r io.Reader) (*MLP, error) {
	var wire MLPWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	m, err := MLPFromWire(wire)
	if err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return m, nil
}

// ApplyDelta adds delta (same shapes as Grads) scaled by factor to the
// parameters; SGD uses it as its single mutation point.
func (m *MLP) ApplyDelta(g *Grads, factor float64) {
	for l := range m.weights {
		for i := range m.weights[l] {
			m.weights[l][i] += factor * g.weights[l][i]
		}
		for i := range m.biases[l] {
			m.biases[l][i] += factor * g.biases[l][i]
		}
	}
}

// Optimizer updates an MLP's parameters from accumulated gradients; Step
// interprets g as the gradient of a loss to minimize.
type Optimizer interface {
	// Step applies one update and leaves g untouched.
	Step(m *MLP, g *Grads)
	// Reset clears optimizer state (e.g. Adam moments).
	Reset()
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity *Grads
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (s *SGD) Step(m *MLP, g *Grads) {
	if s.Momentum == 0 {
		m.ApplyDelta(g, -s.LR)
		return
	}
	if s.velocity == nil {
		s.velocity = m.NewGrads()
	}
	s.velocity.Scale(s.Momentum)
	s.velocity.Add(g)
	m.ApplyDelta(s.velocity, -s.LR)
}

// Reset implements Optimizer.
func (s *SGD) Reset() { s.velocity = nil }

// Reset implements Optimizer.
func (a *Adam) Reset() { a.m, a.v, a.t = nil, nil, 0 }

// GradCheck numerically verifies Backward against central finite
// differences of a scalar loss at input x: loss(out) must be differentiable
// with gradient lossGrad(out). It returns the max relative error across
// parameters.
func GradCheck(m *MLP, x []float64, loss func(out []float64) float64, lossGrad func(out []float64) []float64) float64 {
	out, cache := m.ForwardCache(x)
	g := m.NewGrads()
	m.Backward(cache, lossGrad(out), g)

	const eps = 1e-6
	maxErr := 0.0
	check := func(param, analytic []float64) {
		for i := range param {
			orig := param[i]
			param[i] = orig + eps
			lp := loss(m.Forward(x))
			param[i] = orig - eps
			lm := loss(m.Forward(x))
			param[i] = orig
			numeric := (lp - lm) / (2 * eps)
			denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic[i]))
			if err := math.Abs(numeric-analytic[i]) / denom; err > maxErr {
				maxErr = err
			}
		}
	}
	for l := range m.weights {
		check(m.weights[l], g.weights[l])
		check(m.biases[l], g.biases[l])
	}
	return maxErr
}

// BenchmarkNNBackward times one per-sample forward+backward through the
// oracle on an ABR-policy-shaped network (BenchmarkMicro/NNBackwardBatch
// in the repository root times the batched kernels the trainers run).
func BenchmarkNNBackward(b *testing.B) {
	const obsSize = 27 // abr.ObsSize
	rng := rand.New(rand.NewSource(9))
	m := MustMLP(rng, Tanh, obsSize, 64, 32, 6)
	x := make([]float64, obsSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	grads := m.NewGrads()
	gradOut := []float64{1, 0, 0, 0, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cache := m.ForwardCache(x)
		m.Backward(cache, gradOut, grads)
	}
}
