// Package workload provides the synthetic workload generators the FlatFlash
// evaluation uses: Zipfian and uniform key-popularity distributions (the YCSB
// generators), scrambled Zipfian to spread hot keys across the key space,
// sequential/random access-pattern drivers, and the YCSB-B / YCSB-D operation
// mixes from §5.4.
package workload

import (
	"math"
	"sync"

	"flatflash/internal/sim"
)

// Zipf generates integers in [0, n) with a Zipfian distribution using the
// rejection-free method of Gray et al. ("Quickly generating billion-record
// synthetic databases", SIGMOD '94) — the same generator YCSB uses. Smaller
// values are more popular.
type Zipf struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	// cut1 is 1 + 0.5^theta: u*zetan in [1, cut1) draws 1. It is the
	// Pow(0.5, theta) expression Next always used, not zeta(2, theta),
	// which may differ in the last bit.
	cut1 float64
	rng  *sim.RNG
}

// DefaultZipfTheta is the YCSB default skew.
const DefaultZipfTheta = 0.99

// NewZipf returns a Zipfian generator over [0, n) with skew theta in (0, 1).
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf over empty range")
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, rng: rng}
	z.zetan, z.eta = zipfConstants(n, theta)
	z.alpha = 1 / (1 - theta)
	z.cut1 = 1 + math.Pow(0.5, theta)
	return z
}

// zipfKey identifies one normalization: the range and theta's exact bits.
type zipfKey struct {
	n     uint64
	theta uint64
}

// zipfConsts holds one key's normalization, computed once.
type zipfConsts struct {
	once  sync.Once
	zetan float64
	eta   float64
}

// zipfMemo maps zipfKey to *zipfConsts for the life of the process.
var zipfMemo sync.Map

// zipfConstants returns zeta(n, theta) and the Gray et al. eta for (n,
// theta). The O(n) sum is paid once per distinct (n, theta) per process:
// the paper's database runs build hundreds of generators over one key
// space, and concurrent sweep workers share the first caller's result.
// Memoizing is exact — every caller runs the same summation in the same
// order, so the stored float64s carry the bits a fresh sum would.
func zipfConstants(n uint64, theta float64) (zetan, eta float64) {
	k := zipfKey{n: n, theta: math.Float64bits(theta)}
	v, ok := zipfMemo.Load(k)
	if !ok {
		v, _ = zipfMemo.LoadOrStore(k, new(zipfConsts))
	}
	c := v.(*zipfConsts)
	c.once.Do(func() {
		c.zetan = zeta(n, theta)
		c.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/c.zetan)
	})
	return c.zetan, c.eta
}

// zeta is the generalized harmonic number sum_{i=1..n} i^-theta, summed in
// ascending i. Callers go through zipfConstants, which memoizes it.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipfian-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.cut1 {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledZipf spreads Zipfian popularity across the key space with a
// multiplicative hash, so hot keys are not adjacent (the YCSB
// ScrambledZipfianGenerator). The distribution of popularity is unchanged.
type ScrambledZipf struct {
	z *Zipf
	n uint64
}

// NewScrambledZipf returns a scrambled Zipfian generator over [0, n).
func NewScrambledZipf(rng *sim.RNG, n uint64, theta float64) *ScrambledZipf {
	return &ScrambledZipf{z: NewZipf(rng, n, theta), n: n}
}

// Next returns the next scrambled Zipfian value in [0, n).
func (s *ScrambledZipf) Next() uint64 {
	return fnvHash64(s.z.Next()) % s.n
}

func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Uniform generates integers uniformly in [0, n).
type Uniform struct {
	n   uint64
	rng *sim.RNG
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(rng *sim.RNG, n uint64) *Uniform {
	if n == 0 {
		panic("workload: Uniform over empty range")
	}
	return &Uniform{n: n, rng: rng}
}

// Next returns the next uniform value in [0, n).
func (u *Uniform) Next() uint64 { return u.rng.Uint64n(u.n) }

// Latest approximates the YCSB "latest" distribution used by workload D:
// recently inserted records are most popular. It draws a Zipfian offset from
// the current tail of the key space.
type Latest struct {
	z    *Zipf
	tail uint64 // exclusive upper bound: keys [0, tail) exist
}

// NewLatest returns a latest-distribution generator; tail must be >= 1 and
// grow via Insert as records are added.
func NewLatest(rng *sim.RNG, initial uint64, theta float64) *Latest {
	if initial == 0 {
		panic("workload: Latest needs at least one record")
	}
	return &Latest{z: NewZipf(rng, initial, theta), tail: initial}
}

// Insert registers a newly inserted record and returns its key.
func (l *Latest) Insert() uint64 {
	k := l.tail
	l.tail++
	return k
}

// Next returns a key biased toward recent inserts.
func (l *Latest) Next() uint64 {
	off := l.z.Next()
	if off >= l.tail {
		off = l.tail - 1
	}
	return l.tail - 1 - off
}

// Tail returns the current number of records.
func (l *Latest) Tail() uint64 { return l.tail }
