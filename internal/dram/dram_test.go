package dram

import (
	"testing"
)

func testConfig() Config {
	return Config{Frames: 4, PageSize: 128, AccessLatency: DefaultAccessLatency}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []Config{
		{Frames: 0, PageSize: 128, AccessLatency: 1},
		{Frames: 4, PageSize: 0, AccessLatency: 1},
		{Frames: 4, PageSize: 128, AccessLatency: 0},
	} {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted", i)
		}
	}
}

func TestAllocReleaseCycle(t *testing.T) {
	d, _ := New(testConfig())
	if d.FreeFrames() != 4 {
		t.Fatalf("free = %d", d.FreeFrames())
	}
	var frames []int
	for i := 0; i < 4; i++ {
		f, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := d.Alloc(); err != ErrNoFrames {
		t.Fatalf("err = %v", err)
	}
	data, err := d.Data(frames[0])
	if err != nil || len(data) != 128 {
		t.Fatalf("data err=%v len=%d", err, len(data))
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("frame not zeroed")
		}
	}
	if err := d.Release(frames[0]); err != nil {
		t.Fatal(err)
	}
	if d.FreeFrames() != 1 {
		t.Fatalf("free after release = %d", d.FreeFrames())
	}
	if _, err := d.Data(frames[0]); err != ErrBadFrame {
		t.Fatalf("released frame readable: %v", err)
	}
	if err := d.Release(frames[0]); err != ErrBadFrame {
		t.Fatal("double release accepted")
	}
	if err := d.Release(99); err != ErrBadFrame {
		t.Fatal("bogus release accepted")
	}
}

func TestLRUOrder(t *testing.T) {
	d, _ := New(testConfig())
	f0, _ := d.Alloc()
	f1, _ := d.Alloc()
	f2, _ := d.Alloc()
	// LRU is f0. Touch f0 -> LRU becomes f1.
	if c, ok := d.EvictCandidate(); !ok || c != f0 {
		t.Fatalf("candidate = %d", c)
	}
	if lat, err := d.Touch(f0); err != nil || lat != DefaultAccessLatency {
		t.Fatalf("touch lat=%v err=%v", lat, err)
	}
	if c, _ := d.EvictCandidate(); c != f1 {
		t.Fatalf("candidate after touch = %d", c)
	}
	_ = f2
	if d.Accesses() != 1 {
		t.Fatalf("accesses = %d", d.Accesses())
	}
	if _, err := d.Touch(99); err != ErrBadFrame {
		t.Fatal("touch of bogus frame accepted")
	}
}

func TestPinExcludesFromEviction(t *testing.T) {
	d, _ := New(testConfig())
	f0, _ := d.Alloc()
	f1, _ := d.Alloc()
	if err := d.Pin(f0); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.EvictCandidate(); !ok || c != f1 {
		t.Fatalf("pinned frame still candidate: %d", c)
	}
	// Pin the only other frame: no candidate at all.
	d.Pin(f1)
	if _, ok := d.EvictCandidate(); ok {
		t.Fatal("candidate despite all pinned")
	}
	if err := d.Unpin(f0); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.EvictCandidate(); !ok || c != f0 {
		t.Fatalf("unpinned frame not candidate: %d", c)
	}
	// Unpin of an unpinned frame is a no-op.
	if err := d.Unpin(f0); err != nil {
		t.Fatal(err)
	}
	// Release of a pinned frame clears the pin.
	if err := d.Release(f1); err != nil {
		t.Fatal(err)
	}
	if err := d.Pin(99); err != ErrBadFrame {
		t.Fatal("pin of bogus frame accepted")
	}
}

func TestEvictCandidateWhere(t *testing.T) {
	d, err := New(Config{Frames: 4, PageSize: 64, AccessLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	for i := 0; i < 4; i++ {
		f, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// LRU order coldest-first is frames[0], frames[1], frames[2], frames[3].
	owner := map[int]int{frames[0]: 1, frames[1]: 2, frames[2]: 1, frames[3]: 2}
	f, ok := d.EvictCandidateWhere(func(f int) bool { return owner[f] == 2 })
	if !ok || f != frames[1] {
		t.Fatalf("owner-2 candidate = (%d, %v), want (%d, true)", f, ok, frames[1])
	}
	// Touch frames[1] to make it hottest: the next owner-2 candidate is frames[3].
	if _, err := d.Touch(frames[1]); err != nil {
		t.Fatal(err)
	}
	f, ok = d.EvictCandidateWhere(func(f int) bool { return owner[f] == 2 })
	if !ok || f != frames[3] {
		t.Fatalf("owner-2 candidate after touch = (%d, %v), want (%d, true)", f, ok, frames[3])
	}
	// Pinned frames never qualify.
	if err := d.Pin(frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Pin(frames[2]); err != nil {
		t.Fatal(err)
	}
	if f, ok := d.EvictCandidateWhere(func(f int) bool { return owner[f] == 1 }); ok {
		t.Fatalf("pinned frames returned as candidate: %d", f)
	}
	// No match at all.
	if _, ok := d.EvictCandidateWhere(func(int) bool { return false }); ok {
		t.Fatal("EvictCandidateWhere matched with always-false predicate")
	}
}

// BenchmarkTouch times the core of a per-line DRAM hit: Touch on a full
// 256-frame LRU list, cycling through the frames so every call unlinks the
// least recently used frame and pushes it to the MRU end.
func BenchmarkTouch(b *testing.B) {
	const frames = 256
	d, err := New(Config{Frames: frames, PageSize: 4096, AccessLatency: DefaultAccessLatency})
	if err != nil {
		b.Fatal(err)
	}
	fs := make([]int, frames)
	for i := range fs {
		if fs[i], err = d.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Touch(fs[i%frames]); err != nil {
			b.Fatal(err)
		}
	}
}
