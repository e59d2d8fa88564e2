package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := []complex128{1, 0, 0, 0}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v", i, v)
		}
	}
	// FFT of a constant is an impulse of size n at bin 0.
	y := []complex128{2, 2, 2, 2}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-8) > 1e-12 || cmplx.Abs(y[1]) > 1e-12 {
		t.Fatalf("constant FFT = %v", y)
	}
	// Single tone lands in its bin.
	n := 16
	z := make([]complex128, n)
	for i := range z {
		th := 2 * math.Pi * 3 * float64(i) / float64(n)
		z[i] = cmplx.Exp(complex(0, th))
	}
	if err := FFT(z); err != nil {
		t.Fatal(err)
	}
	for i, v := range z {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("tone FFT[%d] = %v", i, v)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Fatal("length 12 should be rejected")
	}
	if err := FFT(nil); err == nil {
		t.Fatal("empty input should be rejected")
	}
}

// ifft is the in-place inverse FFT of x, 1/n normalization included,
// by way of the forward transform: ifft(x) = conj(FFT(conj(x)))/n.
func ifft(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
	return nil
}

// Property: ifft(FFT(x)) == x.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeExp uint8) bool {
		n := 1 << (sizeExp%7 + 1) // 2..128
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x) != nil || ifft(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — sum |x|^2 == (1/n) sum |X|^2.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 64
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if FFT(x) != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-6*math.Max(1, timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestButterflies(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 4, 8: 12, 256: 1024}
	for n, want := range cases {
		if got := Butterflies(n); got != want {
			t.Errorf("Butterflies(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFFT2DMatchesSeparable(t *testing.T) {
	// 2D of an impulse at (0,0) is all-ones.
	m := NewMatrix(8)
	m.Set(0, 0, 1)
	if err := FFT2D(m); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatalf("2D impulse [%d] = %v", i, v)
		}
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	col := m.Col(2)
	if col[1] != 5 {
		t.Fatal("Col broken")
	}
	col[3] = 7
	m.SetCol(2, col)
	if m.At(3, 2) != 7 {
		t.Fatal("SetCol broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
}
