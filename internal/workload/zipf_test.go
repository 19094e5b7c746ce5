package workload

import (
	"math"
	"testing"

	"flatflash/internal/sim"
)

// freshZipfConstants recomputes zeta(n, theta) and eta without the memo,
// exactly as NewZipf did before memoizing.
func freshZipfConstants(n uint64, theta float64) (zetan, eta float64) {
	zetan = zeta(n, theta)
	eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan)
	return zetan, eta
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// The memo must hand back the bits a fresh summation produces, on a miss
// and on a hit, and must key on theta as well as n.
func TestZetaMemoExact(t *testing.T) {
	thetas := []float64{0.75, 0.8, 0.99}
	for _, n := range []uint64{1, 2, 1000, txdbKeys} {
		seen := map[[2]uint64]float64{}
		for _, theta := range thetas {
			wantZ, wantE := freshZipfConstants(n, theta)
			for pass := 0; pass < 2; pass++ { // miss (or earlier hit), then hit
				z := NewZipf(sim.NewRNG(1), n, theta)
				if !sameBits(z.zetan, wantZ) || !sameBits(z.eta, wantE) {
					t.Fatalf("n=%d theta=%v pass %d: memo (%v, %v), fresh (%v, %v)",
						n, theta, pass, z.zetan, z.eta, wantZ, wantE)
				}
				if !sameBits(z.cut1, 1+math.Pow(0.5, theta)) {
					t.Fatalf("n=%d theta=%v: cut1 %v", n, theta, z.cut1)
				}
			}
			key := [2]uint64{math.Float64bits(wantZ), math.Float64bits(wantE)}
			if prev, ok := seen[key]; ok {
				t.Fatalf("n=%d: theta %v and %v share constants", n, prev, theta)
			}
			seen[key] = theta
		}
	}
}

// Concurrent first calls for the same and for different keys must all see
// the fresh constants; runs under the race detector in CI.
func TestNewZipfConcurrent(t *testing.T) {
	ns := []uint64{3001, 3002, 3003}
	thetas := []float64{0.7, 0.9}
	const calls = 48
	got := make([]*Zipf, calls)
	err := sim.ForEach(calls, 8, func(i int) error {
		got[i] = NewZipf(sim.NewRNG(uint64(i)), ns[i%len(ns)], thetas[i%len(thetas)])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range got {
		n, theta := ns[i%len(ns)], thetas[i%len(thetas)]
		wantZ, wantE := freshZipfConstants(n, theta)
		if !sameBits(z.zetan, wantZ) || !sameBits(z.eta, wantE) {
			t.Fatalf("call %d (n=%d theta=%v): (%v, %v), fresh (%v, %v)", i, n, theta, z.zetan, z.eta, wantZ, wantE)
		}
	}
}

// txdbKeys is the txdb key space at Quick scale: 48 MiB of 128 B records.
const txdbKeys = 48 << 20 / 128

var (
	zipfSink *Zipf
	keySink  uint64
)

// BenchmarkNewZipf measures a generator build at the txdb key space once
// the memo holds its constants — the cost every database worker pays.
func BenchmarkNewZipf(b *testing.B) {
	rng := sim.NewRNG(1)
	NewZipf(rng, txdbKeys, DefaultZipfTheta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zipfSink = NewZipf(rng, txdbKeys, DefaultZipfTheta)
	}
}

// BenchmarkZipfNext measures one key draw.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(sim.NewRNG(1), txdbKeys, DefaultZipfTheta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = z.Next()
	}
}
