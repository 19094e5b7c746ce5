package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// driveMixed runs a deterministic mixed workload (varied access sizes, page
// crossings, persistent and volatile regions, persistence, syncs, idle gaps)
// against an instrumented FlatFlash and returns everything the pinned
// digests cover: the counter rendering, the trace bytes, the metrics JSONL,
// the final virtual time, and a read-back of both regions.
func driveMixed(t *testing.T, seed uint64) (counters, trace, metrics, data string, now sim.Time) {
	t.Helper()
	h, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(1 << 16)
	reg := telemetry.NewRegistry(100 * sim.Microsecond)
	h.Instrument(tr, reg)

	region, err := h.MmapPersistent(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Odd iterations go to a volatile region of the same size, whose hot
	// pages are promoted: the run takes DRAM hits and PLB redirects as well
	// as MMIOs.
	vol, err := h.Mmap(region.Size)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	buf := make([]byte, 4096+128) // big enough for every size below
	sizes := []int{1, 64, 100, 256, 4096, 4096 + 128}
	for i := 0; i < 3000; i++ {
		size := sizes[rng.Intn(len(sizes))]
		off := uint64(rng.Intn(int(region.Size) - size))
		addr := region.Base + off
		if i%2 == 1 {
			addr = vol.Base + off
		}
		switch {
		case i%7 == 0:
			for j := 0; j < size; j++ {
				buf[j] = byte(i + j)
			}
			if _, err := h.Write(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := h.Read(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		}
		switch i % 400 {
		case 13:
			if _, err := h.Persist(region.Base+off, 64); err != nil {
				t.Fatal(err)
			}
		case 29:
			if _, err := h.SyncPages(addr, 1); err != nil {
				t.Fatal(err)
			}
		case 57:
			h.Advance(sim.Micros(50))
		}
	}
	h.Drain()
	reg.Finish(h.Now())

	var tb, mb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tr, reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	read := make([]byte, 2<<16)
	if _, err := h.Read(region.Base, read[:1<<16]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(vol.Base, read[1<<16:]); err != nil {
		t.Fatal(err)
	}
	return h.Counters().String(), tb.String(), mb.String(), string(read), h.Now()
}

// fnvHex is the FNV-1a 64 digest the pinned determinism tests compare.
func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMixedWorkloadDigests pins driveMixed's outputs: counters, Chrome
// trace, metrics JSONL, read-back data and final virtual time must hash to
// the committed digests for each seed. Every access size from 1 B to a page
// and a half goes through the per-cache-line path, so a change to what one
// line costs or counts — a DRAM latency charged per access instead of per
// line, a skipped TLB hit — moves a digest.
func TestMixedWorkloadDigests(t *testing.T) {
	cases := []struct {
		seed                           uint64
		counters, trace, metrics, data string
		now                            sim.Time
	}{
		{1, "2ac779784cae67e3", "c92ea71654144f0e", "ceff5feb6c7b20c5", "368417133fa992c8", 262869060},
		{42, "f3a849099cd935f9", "505fa28d0a168d6a", "17428743e8fde849", "14d291f1b80c1cf5", 231855980},
		{20260805, "b60ee88e8bacf3cc", "0ce89c9f550cc62f", "fd7859bcc7b8924b", "86c0a7e5ed144d0c", 228114920},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			c, tr, m, d, now := driveMixed(t, tc.seed)
			for _, got := range []struct{ name, out, want string }{
				{"counters", c, tc.counters},
				{"trace", tr, tc.trace},
				{"metrics", m, tc.metrics},
				{"data", d, tc.data},
			} {
				if h := fnvHex(got.out); h != got.want {
					t.Errorf("%s digest %s, want %s", got.name, h, got.want)
				}
			}
			if now != tc.now {
				t.Errorf("virtual time %d, want %d", now, tc.now)
			}
			if t.Failed() {
				t.Logf("counters:\n%s", c)
			}
		})
	}
}

// TestMixedWorkloadDigestsUninstrumented pins a volatile-region run of 64 B
// to 4 KiB accesses with no tracer or registry attached, so the counters and
// time of the nil-sink branches are pinned too.
func TestMixedWorkloadDigestsUninstrumented(t *testing.T) {
	h, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	region, err := h.Mmap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	buf := make([]byte, 4096)
	for i := 0; i < 2000; i++ {
		size := 64 + rng.Intn(4000)
		addr := region.Base + uint64(rng.Intn(int(region.Size)-size))
		if i%5 == 0 {
			if _, err := h.Write(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
		} else if _, err := h.Read(addr, buf[:size]); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	c := h.Counters().String()
	if got, want := fnvHex(c), "54bd1efbec053f43"; got != want {
		t.Errorf("counters digest %s, want %s:\n%s", got, want, c)
	}
	if got, want := h.Now(), sim.Time(55701180); got != want {
		t.Errorf("virtual time %d, want %d", got, want)
	}
}
