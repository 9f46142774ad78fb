package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with the usual
// bias-corrected first and second moment estimates.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	m, v *Grads
	t    int
}

// NewAdam returns an Adam optimizer with standard hyperparameters
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update and leaves g untouched. It interprets g as the
// gradient of a loss to *minimize*; callers doing gradient ascent (policy
// gradients) negate before accumulating or use Grads.Scale(-1).
func (a *Adam) Step(net *MLP, g *Grads) {
	if a.m == nil {
		a.m = net.NewGrads()
		a.v = net.NewGrads()
	}
	a.t++
	c1, c2 := adamCorrections(a.Beta1, a.Beta2, a.t)
	for l := range g.weights {
		adamUpdate(net.weights[l], g.weights[l], a.m.weights[l], a.v.weights[l], a.LR, a.Beta1, a.Beta2, a.Epsilon, c1, c2)
		adamUpdate(net.biases[l], g.biases[l], a.m.biases[l], a.v.biases[l], a.LR, a.Beta1, a.Beta2, a.Epsilon, c1, c2)
	}
}

// AdamUpdate applies Adam step t (counted from 1) with learning rate lr,
// moment decays b1, b2 and epsilon eps to params from grad, updating the
// moment estimates m and v in place, exactly as Adam.Step updates one
// layer. params, m and v must be at least as long as grad.
func AdamUpdate(params, grad, m, v []float64, lr, b1, b2, eps float64, t int) {
	c1, c2 := adamCorrections(b1, b2, t)
	adamUpdate(params, grad, m, v, lr, b1, b2, eps, c1, c2)
}

// adamCorrections returns the bias corrections 1-b1^t and 1-b2^t of step t.
func adamCorrections(b1, b2 float64, t int) (c1, c2 float64) {
	return 1 - math.Pow(b1, float64(t)), 1 - math.Pow(b2, float64(t))
}

// adamUpdate is one Adam step at bias corrections c1 and c2:
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + ((1-b2)*g)*g
//	p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
//
// With the AVX2 kernels the first len(grad)&^3 entries run four at a time
// in adamAsm, as the same unfused IEEE operations in the same order, so
// both paths give the same bits.
func adamUpdate(params, grad, m, v []float64, lr, b1, b2, eps, c1, c2 float64) {
	i := 0
	if useASM {
		i = len(grad) &^ 3
		adamAsm(params[:i], grad[:i], m[:i], v[:i], lr, b1, b2, eps, c1, c2)
	}
	adamScalar(params[i:], grad[i:], m[i:], v[i:], lr, b1, b2, eps, c1, c2)
}

// adamScalar is adamUpdate's loop in Go.
func adamScalar(params, grad, m, v []float64, lr, b1, b2, eps, c1, c2 float64) {
	for i, gi := range grad {
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
