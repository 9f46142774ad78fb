package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(rng, Tanh, 4); err == nil {
		t.Fatal("single-size MLP accepted")
	}
	if _, err := NewMLP(rng, Tanh, 4, 0, 2); err == nil {
		t.Fatal("zero-width layer accepted")
	}
	m, err := NewMLP(rng, Tanh, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.InSize() != 3 || m.OutSize() != 2 || m.NumLayers() != 2 {
		t.Fatalf("dims: in=%d out=%d layers=%d", m.InSize(), m.OutSize(), m.NumLayers())
	}
	if m.NumParams() != 3*5+5+5*2+2 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := MustMLP(rng, Tanh, 4, 8, 3)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	y1 := m.Forward(x)
	y2 := m.Forward(x)
	if len(y1) != 3 {
		t.Fatalf("output size = %d", len(y1))
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("Forward not deterministic")
		}
	}
}

func TestForwardPanicsOnWrongInput(t *testing.T) {
	m := MustMLP(rand.New(rand.NewSource(1)), Tanh, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size did not panic")
		}
	}()
	m.Forward([]float64{1})
}

func TestForwardIntoPanicsOnWrongOutput(t *testing.T) {
	m := MustMLP(rand.New(rand.NewSource(1)), Tanh, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong output size did not panic")
		}
	}()
	m.ForwardInto(make([]float64, 3), make([]float64, 4))
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-1) != 0 || ReLU.apply(2) != 2 {
		t.Fatal("ReLU wrong")
	}
	if Linear.apply(-3) != -3 {
		t.Fatal("Linear wrong")
	}
	if math.Abs(Tanh.apply(0.5)-math.Tanh(0.5)) > 1e-15 {
		t.Fatal("Tanh wrong")
	}
	for _, a := range []Activation{Linear, Tanh, ReLU} {
		if a.String() == "unknown" {
			t.Fatalf("missing String for %d", a)
		}
	}
}

func TestGradCheckTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := MustMLP(rng, Tanh, 3, 6, 4, 2)
	x := []float64{0.3, -0.5, 0.8}
	// Loss: sum of squares of outputs.
	loss := func(out []float64) float64 {
		s := 0.0
		for _, v := range out {
			s += v * v
		}
		return s
	}
	lossGrad := func(out []float64) []float64 {
		g := make([]float64, len(out))
		for i, v := range out {
			g[i] = 2 * v
		}
		return g
	}
	if err := GradCheck(m, x, loss, lossGrad); err > 1e-5 {
		t.Fatalf("tanh gradcheck max rel err = %v", err)
	}
}

func TestGradCheckReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MustMLP(rng, ReLU, 4, 5, 3)
	x := []float64{0.9, -0.4, 0.2, 0.7}
	loss := func(out []float64) float64 {
		s := 0.0
		for i, v := range out {
			s += float64(i+1) * v
		}
		return s
	}
	lossGrad := func(out []float64) []float64 {
		g := make([]float64, len(out))
		for i := range out {
			g[i] = float64(i + 1)
		}
		return g
	}
	if err := GradCheck(m, x, loss, lossGrad); err > 1e-4 {
		t.Fatalf("relu gradcheck max rel err = %v", err)
	}
}

func TestBackwardReturnsInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := MustMLP(rng, Tanh, 2, 4, 1)
	x := []float64{0.2, -0.1}
	out, cache := m.ForwardCache(x)
	g := m.NewGrads()
	inGrad := m.Backward(cache, []float64{1}, g)
	// Numerically check d out / d x_0.
	const eps = 1e-6
	xp := []float64{x[0] + eps, x[1]}
	xm := []float64{x[0] - eps, x[1]}
	numeric := (m.Forward(xp)[0] - m.Forward(xm)[0]) / (2 * eps)
	if math.Abs(numeric-inGrad[0]) > 1e-6 {
		t.Fatalf("input grad = %v, numeric %v", inGrad[0], numeric)
	}
	_ = out
}

func TestGradsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := MustMLP(rng, Tanh, 2, 3, 1)
	g := m.NewGrads()
	if g.Count() != 0 {
		t.Fatal("fresh grads count != 0")
	}
	_, cache := m.ForwardCache([]float64{1, 2})
	m.Backward(cache, []float64{1}, g)
	if g.Count() != 1 {
		t.Fatalf("count = %d", g.Count())
	}
	n := g.GlobalNorm()
	if n <= 0 {
		t.Fatal("zero grad norm after backward")
	}
	g.Scale(2)
	if math.Abs(g.GlobalNorm()-2*n) > 1e-9 {
		t.Fatal("Scale did not double the norm")
	}
	if got := g.ClipGlobalNorm(n); got != g.GlobalNorm() {
		t.Fatalf("ClipGlobalNorm returned %v, the clipped norm is %v", got, g.GlobalNorm())
	}
	if g.GlobalNorm() > n*(1+1e-9) {
		t.Fatal("ClipGlobalNorm did not clip")
	}
	if got := g.ClipGlobalNorm(4 * n); got != g.GlobalNorm() {
		t.Fatalf("unclipped: ClipGlobalNorm returned %v, the norm is %v", got, g.GlobalNorm())
	}
	g.Zero()
	if g.GlobalNorm() != 0 || g.Count() != 0 {
		t.Fatal("Zero did not reset")
	}
}

func TestGradsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := MustMLP(rng, Tanh, 2, 2)
	g1 := m.NewGrads()
	g2 := m.NewGrads()
	_, cache := m.ForwardCache([]float64{1, 1})
	m.Backward(cache, []float64{1, 0}, g1)
	g2.Add(g1)
	g2.Add(g1)
	if math.Abs(g2.GlobalNorm()-2*g1.GlobalNorm()) > 1e-9 {
		t.Fatal("adding g1 twice should double the norm")
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := MustMLP(rng, Tanh, 3, 4, 2)
	c := m.Clone()
	x := []float64{0.1, 0.2, 0.3}
	y0 := m.Forward(x)
	yc := c.Forward(x)
	for i := range y0 {
		if y0[i] != yc[i] {
			t.Fatal("clone differs from original")
		}
	}
	// Mutating the clone must not affect the original.
	g := c.NewGrads()
	_, cache := c.ForwardCache(x)
	c.Backward(cache, []float64{1, 1}, g)
	c.ApplyDelta(g, -0.5)
	y1 := m.Forward(x)
	for i := range y0 {
		if y0[i] != y1[i] {
			t.Fatal("mutating clone changed original")
		}
	}
	if err := m.CopyFrom(c); err != nil {
		t.Fatal(err)
	}
	y2 := m.Forward(x)
	yc2 := c.Forward(x)
	for i := range y2 {
		if y2[i] != yc2[i] {
			t.Fatal("CopyFrom did not copy")
		}
	}
	other := MustMLP(rng, Tanh, 2, 2)
	if err := m.CopyFrom(other); err == nil {
		t.Fatal("CopyFrom with mismatched architecture accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := MustMLP(rng, ReLU, 5, 7, 3)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 0.5, 0.2, -0.3}
	a, b := m.Forward(x), back.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded network differs")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		logits := []float64{clip(a), clip(b), clip(c)}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clip(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 50)
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("softmax of equal big logits = %v", p)
		}
	}
	p = Softmax([]float64{-1000, 0})
	if p[1] < 0.999 {
		t.Fatalf("softmax = %v", p)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if len(Softmax(nil)) != 0 {
		t.Fatal("softmax of empty should be empty")
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := MustMLP(rng, Tanh, 10, 20, 5)
	limit0 := math.Sqrt(6.0 / 30)
	for _, w := range m.weights[0] {
		if math.Abs(w) > limit0 {
			t.Fatalf("weight %v outside Xavier limit %v", w, limit0)
		}
	}
	for _, b := range m.biases[0] {
		if b != 0 {
			t.Fatal("bias not zero-initialized")
		}
	}
}

func TestAllFiniteAndPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLP(rng, Tanh, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.AllFinite() {
		t.Fatal("fresh MLP not finite")
	}
	g := m.NewGrads()
	if !g.AllFinite() {
		t.Fatal("zero grads not finite")
	}
	g.Poison(math.NaN())
	if g.AllFinite() {
		t.Fatal("poisoned grads reported finite")
	}
	g.Zero()
	if !g.AllFinite() {
		t.Fatal("Zero did not clear the poison")
	}
	g.Poison(math.Inf(1))
	if g.AllFinite() {
		t.Fatal("Inf-poisoned grads reported finite")
	}
	// A poisoned apply poisons the net, and the param scan sees it.
	g.count = 1
	m.ApplyDelta(g, 1)
	if m.AllFinite() {
		t.Fatal("MLP with Inf weight reported finite")
	}
}
