package nnp

// Block-forward kernel: the allocation-free row-block inference path.
// Network.ForwardBlockInto is the hop kernel's forward pass
// (Scratch.forward, under the direct path and FusionBackend), and it
// serves Network.Forward, the Fig. 10 ladder and fusion.RunBigFusionWide.
// gemmBlock is the module's one matrix product: training runs on it too.
//
// Determinism contract: for every row, the accumulation over the input
// dimension runs in ascending k order from +0 with a zero-skip, followed by
// the bias, then the activation — so each output row is bit-identical to
// Network.Forward of the same row, regardless of block size or which
// goroutine computes it. This row independence is what lets the fused
// batch path stack any number of vacancy systems into one tall matrix
// without perturbing trajectories. Its independent reference is the
// triple loop of TestGemmBlockMatchesTripleLoop.

// BlockScratch holds the reusable float64 activation buffers of one
// block-forward worker. It is NOT safe for concurrent use: give each
// goroutine its own scratch (the buffers are the whole point — reusing
// them removes the per-layer allocations and cold-memory zeroing that
// dominate the naive batched path).
type BlockScratch struct {
	a, b []float64
}

// ensure grows both buffers to at least n elements.
func (s *BlockScratch) ensure(n int) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	s.a = s.a[:n]
	s.b = s.b[:n]
}

// maxLayerWidth returns the widest activation the network produces.
func (n *Network) maxLayerWidth() int {
	w := n.InputDim()
	for _, l := range n.Layers {
		if l.W.Cols > w {
			w = l.W.Cols
		}
	}
	return w
}

// ForwardBlockInto evaluates rows [lo, hi) of x through the network and
// writes the final activations into the same rows of out. out must be
// (x.Rows × OutputDim). The call touches only rows [lo, hi) of out, so
// concurrent calls on disjoint row ranges (sharing x and out, each with
// a private scratch) are race-free and produce output bit-identical to a
// single serial Forward over all of x.
func (n *Network) ForwardBlockInto(x, out Matrix, lo, hi int, s *BlockScratch) {
	if x.Cols != n.InputDim() {
		panic("nnp: block forward input width mismatch")
	}
	if out.Cols != n.OutputDim() {
		panic("nnp: block forward output width mismatch")
	}
	rows := hi - lo
	if rows <= 0 {
		return
	}
	s.ensure(rows * n.maxLayerWidth())
	cur := x.Data[lo*x.Cols : hi*x.Cols]
	curCols := x.Cols
	buf, next := s.a, s.b
	for li, l := range n.Layers {
		outW := l.W.Cols
		last := li == len(n.Layers)-1
		dst := buf[:rows*outW]
		if last {
			dst = out.Data[lo*outW : hi*outW]
		}
		gemmBlock(dst, cur, rows, curCols, outW, l.W.Data, l.B, l.Relu)
		if !last {
			cur, curCols = dst, outW
			buf, next = next, buf
		}
	}
	_ = next
}

// gemmBlock computes dst = act(src·W + b) for a contiguous row block. With
// AVX2 (forward_amd64.s) the row quads of a layer whose width is a
// multiple of four or 1 (the energy head) run in assembly, and so does
// their bias/activation pass where the width is a multiple of four; the
// leftover rows and other widths run gemmBlockGo's code. Every output bit
// equals gemmBlockGo's, so which path runs is invisible.
func gemmBlock(dst, src []float64, rows, inW, outW int, w, b []float64, relu bool) {
	q := 0
	if useAVX2 && (outW%4 == 0 || outW == 1) {
		q = rows &^ 3
	}
	if q == 0 {
		gemmBlockGo(dst, src, rows, inW, outW, w, b, relu)
		return
	}
	gemmQuadsAVX2(dst[:q*outW], src[:q*inW], w[:inW*outW], q, inW, outW)
	biasAct(dst[:q*outW], q, outW, b, relu)
	gemmBlockGo(dst[q*outW:rows*outW], src[q*inW:rows*inW], rows-q, inW, outW, w, b, relu)
}

// gemmBlockGo is the pure-Go kernel and the oracle of the assembly one,
// four rows at a time so each weight row is loaded once per quad. The
// per-row float-operation sequence is that of a plain row loop:
// zero-initialised accumulators, ascending-k accumulation with the
// zero-skip, then bias, then the activation — rows never mix, so the
// unrolling cannot perturb any output bit.
func gemmBlockGo(dst, src []float64, rows, inW, outW int, w, b []float64, relu bool) {
	for i := range dst {
		dst[i] = 0
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		a0 := src[(i+0)*inW : (i+1)*inW]
		a1 := src[(i+1)*inW : (i+2)*inW]
		a2 := src[(i+2)*inW : (i+3)*inW]
		a3 := src[(i+3)*inW : (i+4)*inW]
		c0 := dst[(i+0)*outW : (i+1)*outW]
		c1 := dst[(i+1)*outW : (i+2)*outW]
		c2 := dst[(i+2)*outW : (i+3)*outW]
		c3 := dst[(i+3)*outW : (i+4)*outW]
		for k := 0; k < inW; k++ {
			v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			br := w[k*outW : (k+1)*outW]
			// Reslicing the accumulators to len(br) lets the compiler
			// drop the bounds checks in the fused loop.
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				x0, x1, x2, x3 := c0[:len(br)], c1[:len(br)], c2[:len(br)], c3[:len(br)]
				for j, bv := range br {
					x0[j] += float64(v0 * bv)
					x1[j] += float64(v1 * bv)
					x2[j] += float64(v2 * bv)
					x3[j] += float64(v3 * bv)
				}
				continue
			}
			if v0 != 0 {
				x := c0[:len(br)]
				for j, bv := range br {
					x[j] += float64(v0 * bv)
				}
			}
			if v1 != 0 {
				x := c1[:len(br)]
				for j, bv := range br {
					x[j] += float64(v1 * bv)
				}
			}
			if v2 != 0 {
				x := c2[:len(br)]
				for j, bv := range br {
					x[j] += float64(v2 * bv)
				}
			}
			if v3 != 0 {
				x := c3[:len(br)]
				for j, bv := range br {
					x[j] += float64(v3 * bv)
				}
			}
		}
	}
	for ; i < rows; i++ {
		ar := src[i*inW : (i+1)*inW]
		cr := dst[i*outW : (i+1)*outW]
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := w[k*outW : (k+1)*outW]
			for j, bv := range br {
				cr[j] += float64(av * bv)
			}
		}
	}
	biasActGo(dst, rows, outW, b, relu)
}

// biasAct adds the bias to each of rows rows of dst, then applies ReLU if
// relu is set: in assembly (biasActAVX2) where the width is a multiple of
// four, else biasActGo, with the same bits either way.
func biasAct(dst []float64, rows, outW int, b []float64, relu bool) {
	if useAVX2 && outW%4 == 0 && rows > 0 {
		biasActAVX2(dst[:rows*outW], b[:outW], rows, relu)
		return
	}
	biasActGo(dst, rows, outW, b, relu)
}

// biasActGo is biasAct in pure Go and the oracle of biasActAVX2.
func biasActGo(dst []float64, rows, outW int, b []float64, relu bool) {
	if relu {
		for r := 0; r < rows; r++ {
			cr := dst[r*outW : (r+1)*outW]
			for j, bv := range b {
				v := cr[j] + bv
				if v < 0 {
					v = 0
				}
				cr[j] = v
			}
		}
	} else {
		for r := 0; r < rows; r++ {
			cr := dst[r*outW : (r+1)*outW]
			for j, bv := range b {
				cr[j] += bv
			}
		}
	}
}
