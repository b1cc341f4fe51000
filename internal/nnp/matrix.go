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

// product returns a·b through gemmBlock, the module's one matrix-product
// kernel, with a zero bias and no activation. The +0 bias moves no bit:
// the accumulators start at +0, and no sum of products reaches −0.
func product(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nnp: product shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	gemmBlock(c.Data, a.Data, a.Rows, a.Cols, b.Cols, b.Data, make([]float64, b.Cols), false)
	return c
}

// transpose returns mᵀ. Backpropagation forms Xᵀ·δ (weight gradients) as
// product(Xᵀ, δ), which sums over the batch index in ascending order, and
// δ·Wᵀ (input gradients) as product(δ, Wᵀ), which sums over the layer's
// output index in ascending order.
func (m Matrix) transpose() Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}
