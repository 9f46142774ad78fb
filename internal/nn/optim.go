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
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range g.weights {
		adamUpdate(net.weights[l], g.weights[l], a.m.weights[l], a.v.weights[l], a, c1, c2)
		adamUpdate(net.biases[l], g.biases[l], a.m.biases[l], a.v.biases[l], a, c1, c2)
	}
}

func adamUpdate(params, grad, m, v []float64, a *Adam, c1, c2 float64) {
	for i, gi := range grad {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
	}
}
