package ftl

import (
	"bytes"
	"math/rand"
	"testing"

	"flatflash/internal/flash"
	"flatflash/internal/sim"
)

// demandConfig is testConfig with the demand-paged translation map on:
// PageSize 128 → 32 entries per translation page, 96 logical pages → 3
// translation pages, of which cache keeps only cachePages resident.
func demandConfig(cachePages int) Config {
	c := testConfig()
	c.MapCachePages = cachePages
	return c
}

func newDemand(t *testing.T, cachePages int) *FTL {
	t.Helper()
	f, err := New(demandConfig(cachePages))
	if err != nil {
		t.Fatal(err)
	}
	if !f.MapEnabled() {
		t.Fatal("MapCachePages > 0 did not enable demand paging")
	}
	return f
}

// TestDemandEquivalence is the property the design leans on: the demand-paged
// map changes what accesses cost and what must be persisted, never what data
// comes back. The same seeded op stream drives an in-memory-map FTL and a
// demand-paged one; every read must return identical bytes, access for
// access, and both must agree with a shadow model.
func TestDemandEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		dp := newDemand(t, 2)
		rng := rand.New(rand.NewSource(seed))
		lpns := base.LogicalPages()
		shadow := make([]byte, lpns) // last fill byte per lpn, 0 = never written
		bufA, bufB := page(base, 0), page(dp, 0)
		var nowA, nowB sim.Time
		for step := 0; step < 1200; step++ {
			lpn := uint32(rng.Intn(lpns))
			switch r := rng.Intn(10); {
			case r < 6: // write
				fill := byte(rng.Intn(255) + 1)
				data := page(base, fill)
				if nowA, err = base.WritePage(nowA, lpn, data); err != nil {
					t.Fatalf("seed %d step %d: base write: %v", seed, step, err)
				}
				if nowB, err = dp.WritePage(nowB, lpn, data); err != nil {
					t.Fatalf("seed %d step %d: demand write: %v", seed, step, err)
				}
				shadow[lpn] = fill
			case r < 9: // read
				if nowA, err = base.ReadPage(nowA, lpn, bufA); err != nil {
					t.Fatalf("seed %d step %d: base read: %v", seed, step, err)
				}
				if nowB, err = dp.ReadPage(nowB, lpn, bufB); err != nil {
					t.Fatalf("seed %d step %d: demand read: %v", seed, step, err)
				}
				if !bytes.Equal(bufA, bufB) {
					t.Fatalf("seed %d step %d: lpn %d: demand map changed read data",
						seed, step, lpn)
				}
				if !bytes.Equal(bufA, page(base, shadow[lpn])) {
					t.Fatalf("seed %d step %d: lpn %d diverged from shadow", seed, step, lpn)
				}
			default: // trim
				errA, errB := base.Trim(lpn), dp.Trim(lpn)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d step %d: Trim(%d) disagrees: %v vs %v",
						seed, step, lpn, errA, errB)
				}
				shadow[lpn] = 0
			}
			if step%300 == 299 {
				if err := dp.CheckConsistency(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		if err := dp.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st := dp.MapStats(); st.Misses == 0 || st.Evictions == 0 {
			t.Fatalf("seed %d: cache too large to exercise demand paging: %+v", seed, st)
		}
	}
}

// fillPages writes n distinct pages and returns the running clock plus a
// shadow of the fill bytes.
func fillPages(t *testing.T, f *FTL, now sim.Time, n int, rng *rand.Rand, shadow []byte) sim.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		lpn := uint32(rng.Intn(f.LogicalPages()))
		fill := byte(rng.Intn(255) + 1)
		var err error
		if now, err = f.WritePage(now, lpn, page(f, fill)); err != nil {
			t.Fatal(err)
		}
		shadow[lpn] = fill
	}
	return now
}

func verifyShadow(t *testing.T, f *FTL, shadow []byte) {
	t.Helper()
	buf := page(f, 0)
	for lpn := range shadow {
		if _, err := f.ReadPage(0, uint32(lpn), buf); err != nil {
			t.Fatalf("lpn %d: %v", lpn, err)
		}
		if !bytes.Equal(buf, page(f, shadow[lpn])) {
			t.Fatalf("lpn %d: data lost across recovery", lpn)
		}
	}
}

// TestRecoveryPartialScan is the headline recovery property: after a
// checkpoint plus a few more writes (whose map updates crash in controller
// DRAM before any write-back), RebuildL2P reloads the map from persisted
// translation pages and OOB-scans only the blocks programmed since the
// checkpoint — not the whole device — and still recovers the exact map.
func TestRecoveryPartialScan(t *testing.T) {
	f := newDemand(t, 2)
	rng := rand.New(rand.NewSource(11))
	shadow := make([]byte, f.LogicalPages())
	now := fillPages(t, f, 0, 60, rng, shadow)
	now, err := f.FlushMap(now)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of post-checkpoint writes, including a trim, then power loss
	// before anything else reaches flash.
	now = fillPages(t, f, now, 8, rng, shadow)
	for lpn := range shadow {
		if shadow[lpn] != 0 {
			if err := f.Trim(uint32(lpn)); err != nil {
				t.Fatal(err)
			}
			shadow[lpn] = 0
			break
		}
	}
	f.CrashMap()
	f.RebuildL2P()
	rec := f.LastRecovery()
	if !rec.UsedGTD || rec.Fallback {
		t.Fatalf("recovery did not use the GTD: %+v", rec)
	}
	if rec.EquivMismatch {
		t.Fatalf("GTD recovery disagreed with the full scan: %+v", rec)
	}
	total := f.Config().Flash.TotalPages()
	if rec.ScannedPages == 0 || rec.ScannedPages >= total {
		t.Fatalf("scanned %d of %d pages, want a strict partial scan", rec.ScannedPages, total)
	}
	if rec.TransPagesRead == 0 {
		t.Fatalf("no translation pages read during GTD recovery: %+v", rec)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verifyShadow(t, f, shadow)
}

// TestRecoveryAfterFullFlush: when the crash lands right after a checkpoint,
// no block postdates it and recovery needs no OOB scan at all.
func TestRecoveryAfterFullFlush(t *testing.T) {
	f := newDemand(t, 2)
	rng := rand.New(rand.NewSource(12))
	shadow := make([]byte, f.LogicalPages())
	now := fillPages(t, f, 0, 40, rng, shadow)
	if _, err := f.FlushMap(now); err != nil {
		t.Fatal(err)
	}
	f.CrashMap()
	f.RebuildL2P()
	rec := f.LastRecovery()
	if !rec.UsedGTD || rec.Fallback || rec.EquivMismatch {
		t.Fatalf("clean-checkpoint recovery misbehaved: %+v", rec)
	}
	if rec.ScannedBlocks != 0 || rec.ScannedPages != 0 {
		t.Fatalf("scanned %d blocks/%d pages after a clean checkpoint, want none",
			rec.ScannedBlocks, rec.ScannedPages)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verifyShadow(t, f, shadow)
}

// TestRecoveryTornGTDFallsBack: a GTD entry pointing at a page that is not
// the translation page it claims (torn root record) must be detected, and
// recovery must fall back to the full OOB scan — still recovering exactly.
func TestRecoveryTornGTDFallsBack(t *testing.T) {
	f := newDemand(t, 2)
	rng := rand.New(rand.NewSource(13))
	shadow := make([]byte, f.LogicalPages())
	now := fillPages(t, f, 0, 50, rng, shadow)
	if _, err := f.FlushMap(now); err != nil {
		t.Fatal(err)
	}
	// Point tvpn 0's GTD entry at a data page: TypeOf/p2t validation must
	// catch the tear.
	var victim flash.PageAddr = flash.InvalidPage
	for p := 0; p < f.Config().Flash.TotalPages(); p++ {
		if f.p2l.get(p) != noLogical {
			victim = flash.PageAddr(p)
			break
		}
	}
	if victim == flash.InvalidPage {
		t.Fatal("no data page to tear the GTD with")
	}
	f.CorruptGTDForTesting(0, victim)
	f.CrashMap()
	f.RebuildL2P()
	rec := f.LastRecovery()
	if !rec.Fallback || rec.UsedGTD {
		t.Fatalf("torn GTD not detected: %+v", rec)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verifyShadow(t, f, shadow)
}

// TestGCRelocatesTransPages: once GC kicks in, live translation pages inside
// victim blocks must be relocated (and counted separately from data moves).
func TestGCRelocatesTransPages(t *testing.T) {
	c := demandConfig(2)
	c.MapCheckpointEvery = 16 // checkpoint often so trans pages pile up
	f, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	shadow := make([]byte, f.LogicalPages())
	var now sim.Time
	for i := 0; i < 1500; i++ {
		lpn := uint32(rng.Intn(f.LogicalPages()))
		fill := byte(rng.Intn(255) + 1)
		if now, err = f.WritePage(now, lpn, page(f, fill)); err != nil {
			t.Fatal(err)
		}
		shadow[lpn] = fill
	}
	rm := f.Remap()
	if rm.GCRuns == 0 {
		t.Fatal("workload never triggered GC")
	}
	if rm.TransRelocations == 0 {
		t.Fatal("GC never relocated a translation page")
	}
	if f.TransWrites() == 0 {
		t.Fatal("no translation-page programs counted")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	verifyShadow(t, f, shadow)
	// Host-visible write accounting stays data-only; amplification folds the
	// translation traffic in.
	host, flashProgs := f.Writes()
	if host != 1500 {
		t.Fatalf("host writes = %d, want 1500", host)
	}
	if wa := f.WriteAmplification(); wa <= float64(flashProgs)/float64(host)-1e-9 {
		t.Fatalf("write amplification %v excludes translation programs", wa)
	}
}

// TestDemandConfigValidate covers the new knobs.
func TestDemandConfigValidate(t *testing.T) {
	c := testConfig()
	c.MapCachePages = -1
	if c.Validate() == nil {
		t.Error("negative MapCachePages accepted")
	}
}

// BenchmarkMapMiss measures the miss path: two translation pages ping-pong
// through a one-page cache, so every read pays a translation-page fetch.
func BenchmarkMapMiss(b *testing.B) {
	f, err := New(demandConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	epp := f.PageSize() / 4
	lpnA, lpnB := uint32(0), uint32(epp) // distinct translation pages
	var now sim.Time
	for _, lpn := range []uint32{lpnA, lpnB} {
		if now, err = f.WritePage(now, lpn, page(f, 1)); err != nil {
			b.Fatal(err)
		}
	}
	if now, err = f.FlushMap(now); err != nil {
		b.Fatal(err)
	}
	buf := page(f, 0)
	before := f.MapStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := lpnA
		if i&1 == 1 {
			lpn = lpnB
		}
		if now, err = f.ReadPage(now, lpn, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := f.MapStats(); st.Fetches-before.Fetches < int64(b.N) {
		b.Fatal("iterations were not map misses")
	}
}
