package nnp

import "math"

// Adam is the Adam optimiser (Kingma & Ba) over a Network's parameters,
// with optional decoupled weight decay (AdamW) on the weights (not the
// biases) to control overfitting on small training sets.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Epsilon     float64
	WeightDecay float64

	t  int
	mW []Matrix
	vW []Matrix
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an optimiser with the usual defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

func (a *Adam) ensureState(n *Network) {
	if a.mW != nil {
		return
	}
	for _, l := range n.Layers {
		a.mW = append(a.mW, NewMatrix(l.W.Rows, l.W.Cols))
		a.vW = append(a.vW, NewMatrix(l.W.Rows, l.W.Cols))
		a.mB = append(a.mB, make([]float64, len(l.B)))
		a.vB = append(a.vB, make([]float64, len(l.B)))
	}
}

// Step applies one Adam update to the network in place.
func (a *Adam) Step(n *Network, grads []LayerGrad) {
	a.ensureState(n)
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range n.Layers {
		w := n.Layers[l].W.Data
		gw := grads[l].W.Data
		mw, vw := a.mW[l].Data, a.vW[l].Data
		for i, g := range gw {
			mw[i] = float64(a.Beta1*mw[i]) + float64((1-a.Beta1)*g)
			vw[i] = float64(a.Beta2*vw[i]) + float64((1-a.Beta2)*g*g)
			w[i] -= float64(a.LR * ((mw[i]/c1)/(math.Sqrt(vw[i]/c2)+a.Epsilon) + float64(a.WeightDecay*w[i])))
		}
		b := n.Layers[l].B
		gb := grads[l].B
		mb, vb := a.mB[l], a.vB[l]
		for i, g := range gb {
			mb[i] = float64(a.Beta1*mb[i]) + float64((1-a.Beta1)*g)
			vb[i] = float64(a.Beta2*vb[i]) + float64((1-a.Beta2)*g*g)
			b[i] -= a.LR * (mb[i] / c1) / (math.Sqrt(vb[i]/c2) + a.Epsilon)
		}
	}
}
