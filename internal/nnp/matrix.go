// Package nnp implements the neural network potential of TensorKMC from
// scratch: a per-element multi-layer perceptron equivalent to the paper's
// stack of 1×1 convolutions (Sec. 3.5 — "Convert the convolution (1x1
// kernel, stride 1) to the matrix multiplication"), with forward
// evaluation, reverse-mode differentiation, Adam optimisation, and binary
// serialisation. The production architecture is the paper's
// (64, 128, 128, 128, 64, 1) with ReLU activations.
package nnp

import "fmt"

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nnp: invalid matrix shape %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view of row i.
func (m Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatMul computes C = A·B into a freshly allocated matrix.
// The i-k-j loop order keeps the inner loop streaming over contiguous
// rows of B and C, which is the access pattern the paper's big-fusion
// kernel optimises for on CPEs.
func MatMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nnp: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A·B into an existing matrix, overwriting it.
func MatMulInto(c, a, b Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("nnp: matmul shape mismatch")
	}
	for i := range c.Data {
		c.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		cr := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j := range br {
				cr[j] += float64(av * br[j])
			}
		}
	}
}

// MatMulATB computes C = Aᵀ·B (used for weight gradients W_grad = Xᵀ·δ).
func MatMulATB(a, b Matrix) Matrix {
	if a.Rows != b.Rows {
		panic("nnp: matmul-ATB shape mismatch")
	}
	c := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		br := b.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			cr := c.Row(k)
			for j, bv := range br {
				cr[j] += float64(av * bv)
			}
		}
	}
	return c
}

// MatMulABT computes C = A·Bᵀ (used for input gradients δ_prev = δ·Wᵀ).
func MatMulABT(a, b Matrix) Matrix {
	if a.Cols != b.Cols {
		panic("nnp: matmul-ABT shape mismatch")
	}
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		cr := c.Row(i)
		for k := 0; k < b.Rows; k++ {
			br := b.Row(k)
			var s float64
			for j, av := range ar {
				s += float64(av * br[j])
			}
			cr[k] = s
		}
	}
	return c
}

// AddBiasRelu applies y = max(0, y + bias) row-wise in place — the fused
// (MatMul, Bias, ReLU) elementary operation of Fig. 6(b).
func AddBiasRelu(m Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("nnp: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			v := r[j] + bias[j]
			if v < 0 {
				v = 0
			}
			r[j] = v
		}
	}
}

// AddBias applies y = y + bias row-wise in place (final linear layer).
func AddBias(m Matrix, bias []float64) {
	if len(bias) != m.Cols {
		panic("nnp: bias length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] += bias[j]
		}
	}
}
