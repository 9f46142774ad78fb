// Package nn is a small, dependency-free neural-network library sufficient
// for the policy-gradient learners in this repository: fully connected
// multi-layer perceptrons with tanh/ReLU hidden activations, an
// allocation-free single-row forward for inference (ForwardInto, a width-1
// batch), batched forward/backward kernels for training, the
// Adam optimizer, and wire forms (MLPWire, AdamWire) that callers embed in
// their own serialized values. The per-sample backward path, SGD and a
// gradient check live in the package tests, as the reference the batched
// kernels are checked against; so does the per-element scalar forward.
//
// It deliberately trades generality for clarity and determinism: all
// computation is single-threaded per network, uses float64 throughout, and
// draws initial weights from an explicitly provided random source, so a
// fixed seed yields bit-identical training runs.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Activation selects the nonlinearity applied after a hidden layer.
type Activation int

// Supported activations.
const (
	// Linear applies no nonlinearity (used on output layers).
	Linear Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is max(0, x).
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	}
	return "unknown"
}

// MLP is a fully connected network: sizes[0] inputs, len(sizes)-2 hidden
// layers with the configured hidden activation, and sizes[len-1] linear
// outputs.
type MLP struct {
	sizes  []int
	hidden Activation
	// weights[l] is a flat row-major (out x in) matrix for layer l;
	// biases[l] has length out.
	weights [][]float64
	biases  [][]float64

	// free holds width-1 scratches for ForwardInto. A mutex-guarded free
	// list rather than a sync.Pool: the pool drops a random quarter of its
	// Puts under the race detector and empties on GC, and either turns a
	// zero-allocation single-row forward into an occasional scratch
	// allocation. The list grows to the peak number of concurrent callers.
	freeMu sync.Mutex
	free   []*Scratch
}

// NewMLP builds an MLP with Xavier/Glorot-uniform initial weights drawn from
// rng. sizes must contain at least two entries (input and output widths).
func NewMLP(rng *rand.Rand, hidden Activation, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: MLP needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer size %d", s)
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...), hidden: hidden}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		limit := math.Sqrt(6.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m, nil
}

// MustMLP is NewMLP that panics on error.
func MustMLP(rng *rand.Rand, hidden Activation, sizes ...int) *MLP {
	m, err := NewMLP(rng, hidden, sizes...)
	if err != nil {
		panic(err)
	}
	return m
}

// InSize returns the input width.
func (m *MLP) InSize() int { return m.sizes[0] }

// OutSize returns the output width.
func (m *MLP) OutSize() int { return m.sizes[len(m.sizes)-1] }

// Forward computes the network output for input x (len must equal InSize)
// into a newly allocated slice. ForwardInto is the allocation-free form.
func (m *MLP) Forward(x []float64) []float64 {
	out := make([]float64, m.OutSize())
	m.ForwardInto(out, x)
	return out
}

// ForwardInto writes the network output for input x into dst (len(x) must
// equal InSize and len(dst) OutSize) without allocating. It runs the
// width-1 ForwardBatch on a scratch borrowed from the network, so the
// result is bit-identical to the same row of any batched forward, and
// concurrent callers may share one network as long as none of them changes
// its parameters.
func (m *MLP) ForwardInto(dst, x []float64) {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InSize()))
	}
	if len(dst) != m.OutSize() {
		panic(fmt.Sprintf("nn: output size %d, want %d", len(dst), m.OutSize()))
	}
	m.freeMu.Lock()
	var s *Scratch
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
	}
	m.freeMu.Unlock()
	if s == nil {
		s = m.NewScratch(1)
	}
	copy(dst, m.ForwardBatch(s, x, 1))
	m.freeMu.Lock()
	m.free = append(m.free, s)
	m.freeMu.Unlock()
}

// Grads accumulates parameter gradients with the same shapes as the MLP's
// weights and biases.
type Grads struct {
	weights [][]float64
	biases  [][]float64
	count   int // number of accumulated samples (for averaging)
}

// NewGrads allocates a zeroed gradient accumulator matching m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{}
	for l := range m.weights {
		g.weights = append(g.weights, make([]float64, len(m.weights[l])))
		g.biases = append(g.biases, make([]float64, len(m.biases[l])))
	}
	return g
}

// Zero resets the accumulator.
func (g *Grads) Zero() {
	for l := range g.weights {
		clear(g.weights[l])
		clear(g.biases[l])
	}
	g.count = 0
}

// Add accumulates other into g scaled by factor.
func (g *Grads) Add(other *Grads, factor float64) {
	for l := range g.weights {
		for i := range g.weights[l] {
			g.weights[l][i] += factor * other.weights[l][i]
		}
		for i := range g.biases[l] {
			g.biases[l][i] += factor * other.biases[l][i]
		}
	}
	g.count += other.count
}

// Scale multiplies all gradients by factor.
func (g *Grads) Scale(factor float64) {
	for l := range g.weights {
		for i := range g.weights[l] {
			g.weights[l][i] *= factor
		}
		for i := range g.biases[l] {
			g.biases[l][i] *= factor
		}
	}
}

// GlobalNorm returns the L2 norm over all gradient entries.
func (g *Grads) GlobalNorm() float64 {
	sum := 0.0
	for l := range g.weights {
		for _, v := range g.weights[l] {
			sum += v * v
		}
		for _, v := range g.biases[l] {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// ClipGlobalNorm rescales gradients so their global L2 norm is at most max.
func (g *Grads) ClipGlobalNorm(max float64) {
	n := g.GlobalNorm()
	if n > max && n > 0 {
		g.Scale(max / n)
	}
}

// AllFinite reports whether every accumulated gradient entry is a finite
// number — the pre-apply scan the training guard runs before letting an
// optimizer step through. (GlobalNorm also surfaces NaN/Inf, but can
// overflow to +Inf on legitimately huge finite gradients; this scan
// cannot false-positive.)
func (g *Grads) AllFinite() bool {
	for l := range g.weights {
		if !allFinite(g.weights[l]) || !allFinite(g.biases[l]) {
			return false
		}
	}
	return true
}

// Poison overwrites the first weight gradient with v. It exists for
// deterministic fault injection (internal/faults GradPoison): one NaN is
// enough to poison the optimizer apply, and touching a single fixed
// entry keeps chaos runs replayable.
func (g *Grads) Poison(v float64) {
	for l := range g.weights {
		if len(g.weights[l]) > 0 {
			g.weights[l][0] = v
			return
		}
	}
}

// AllFinite reports whether every parameter of the network is a finite
// number. Used by the training guard to detect nets already poisoned by
// an earlier bad apply.
func (m *MLP) AllFinite() bool {
	for l := range m.weights {
		if !allFinite(m.weights[l]) || !allFinite(m.biases[l]) {
			return false
		}
	}
	return true
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...), hidden: m.hidden}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	return c
}

// Softmax returns the softmax of logits, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto writes the softmax of logits into dst (allocation-free; the
// two may not alias partially, but dst == logits is fine). len(dst) must
// equal len(logits).
func SoftmaxInto(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: softmax dst len %d, want %d", len(dst), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	out := dst
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}
