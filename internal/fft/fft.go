// Package fft implements the complex Fast Fourier Transform and the
// distributed two-dimensional FFT of paper §4.2 — the worked example
// for why multicast is usually inappropriate.
//
// The 2DFFT of an n×n image is computed as a 1DFFT over every row,
// a redistribution so each processor holds columns, and a 1DFFT over
// every column. Two redistribution strategies are provided:
//
//   - Multicast: every processor multicasts its entire row results to
//     all the others; each processor reads n*n numbers of which it
//     needs only n*n/P.
//   - Scatter: every processor sends each other processor a message
//     containing only the data it needs.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place forward FFT of x (len must be a power of
// two) using the iterative radix-2 Cooley-Tukey algorithm.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := complex(math.Cos(step*float64(k)), math.Sin(step*float64(k)))
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}

// Butterflies returns the butterfly count of an n-point FFT:
// (n/2)·log2(n). It drives the 68882 execution-cost model.
func Butterflies(n int) int {
	if n < 2 {
		return 0
	}
	return n / 2 * bits.Len(uint(n-1))
}

// Matrix is a dense n×n complex matrix in row-major order.
type Matrix struct {
	N    int
	Data []complex128
}

// NewMatrix allocates an n×n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]complex128, n*n)}
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) complex128 { return m.Data[r*m.N+c] }

// Set stores element (r,c).
func (m *Matrix) Set(r, c int, v complex128) { m.Data[r*m.N+c] = v }

// Row returns row r as a slice view.
func (m *Matrix) Row(r int) []complex128 { return m.Data[r*m.N : (r+1)*m.N] }

// Col copies column c into a fresh slice.
func (m *Matrix) Col(c int) []complex128 {
	out := make([]complex128, m.N)
	for r := 0; r < m.N; r++ {
		out[r] = m.Data[r*m.N+c]
	}
	return out
}

// SetCol stores v as column c.
func (m *Matrix) SetCol(c int, v []complex128) {
	for r := 0; r < m.N; r++ {
		m.Data[r*m.N+c] = v[r]
	}
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.N)
	copy(out.Data, m.Data)
	return out
}

// FFT2D computes the reference (sequential) 2DFFT in place: a 1DFFT
// of every row, then a 1DFFT of every column.
func FFT2D(m *Matrix) error {
	for r := 0; r < m.N; r++ {
		if err := FFT(m.Row(r)); err != nil {
			return err
		}
	}
	for c := 0; c < m.N; c++ {
		col := m.Col(c)
		if err := FFT(col); err != nil {
			return err
		}
		m.SetCol(c, col)
	}
	return nil
}

// MaxAbsDiff returns the largest element-wise magnitude difference
// between two matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	max := 0.0
	for i := range a.Data {
		if d := cabs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func cabs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}
