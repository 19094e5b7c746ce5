package promote

import "testing"

// BenchmarkPolicyUpdate measures Algorithm 1's UPDATE, which promotion runs
// on every SSD-Cache access. Page counts cycle through 1..8 so the policy
// promotes, moves its threshold and resets epochs as it does under load.
func BenchmarkPolicyUpdate(b *testing.B) {
	p := New(DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Update(i%8 + 1)
	}
}
