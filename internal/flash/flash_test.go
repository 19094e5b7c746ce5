package flash

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

func testConfig() Config {
	c := DefaultConfig()
	c.Blocks = 16
	c.PagesPerBlock = 8
	c.PageSize = 256
	c.Channels = 2
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.PagesPerBlock = -1 },
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ReadLatency = 0 },
		func(c *Config) { c.ProgramLatency = -1 },
		func(c *Config) { c.EraseLatency = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := NewDevice(c); err == nil {
			t.Errorf("case %d: NewDevice accepted invalid config", i)
		}
	}
}

func TestCapacityAndGeometry(t *testing.T) {
	c := testConfig()
	if c.Capacity() != 256*8*16 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	if c.TotalPages() != 128 {
		t.Fatalf("pages = %d", c.TotalPages())
	}
	d, _ := NewDevice(c)
	if d.BlockOf(0) != 0 || d.BlockOf(7) != 0 || d.BlockOf(8) != 1 {
		t.Fatal("BlockOf wrong")
	}
}

func TestEraseBeforeProgram(t *testing.T) {
	d, _ := NewDevice(testConfig())
	data := bytes.Repeat([]byte{0xAB}, 256)
	if _, err := d.Program(0, 3, data); err != nil {
		t.Fatalf("program erased page: %v", err)
	}
	if _, err := d.Program(0, 3, data); err != ErrNotErased {
		t.Fatalf("double program: err=%v, want ErrNotErased", err)
	}
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatalf("erase: %v", err)
	}
	if !d.IsErased(3) {
		t.Fatal("page not erased after block erase")
	}
	if _, err := d.Program(0, 3, data); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestReadBackAndErasedPattern(t *testing.T) {
	// Sizes 1 and 3 are not powers of two: the erased fill doubles its
	// copy and must stop exactly at the end of the buffer.
	for _, size := range []int{1, 3, 256, 4096} {
		cfg := testConfig()
		cfg.PageSize = size
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0x11}, size)
		if _, err := d.Read(0, 5, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xFF}, size)) {
			t.Fatalf("size %d: erased page must read as 0xFF, got % x", size, buf)
		}
		peek := bytes.Repeat([]byte{0x22}, size)
		if err := d.Peek(6, peek); err != nil || !bytes.Equal(peek, buf) {
			t.Fatalf("size %d: Peek of an erased page = % x, %v", size, peek, err)
		}
		want := bytes.Repeat([]byte{0x5C}, size)
		d.Program(0, 5, want)
		// Mutating the caller's buffer must not corrupt the stored page.
		want2 := append([]byte(nil), want...)
		want[0] = 0
		d.Read(0, 5, buf)
		if !bytes.Equal(buf, want2) {
			t.Fatalf("size %d: read-back mismatch (device aliased caller buffer?)", size)
		}
	}
}

// metered attributes each device operation in its own access window, so
// two devices' charges compare operation by operation.
type metered struct {
	att  *telemetry.Attribution
	acct *telemetry.TenantAttrib
}

func meter(d *Device) *metered {
	a := telemetry.NewAttribution(0, 0)
	d.SetSink(telemetry.NewSink(nil, nil, a))
	return &metered{att: a, acct: a.Account("dev")}
}

// do runs one operation inside its own window.
func (m *metered) do(op func() (sim.Time, error)) (sim.Time, error) {
	m.att.Begin(m.acct)
	done, err := op()
	m.att.End(0, 0)
	return done, err
}

// count returns how many operations charged component c.
func (m *metered) count(c telemetry.Component) int64 { return m.acct.Hist(c).Count() }

// dump renders every charge's per-component sums and histograms.
func (m *metered) dump() string {
	var b strings.Builder
	m.att.WriteJSONL(&b)
	return b.String()
}

// TestSenseMatchesRead drives three identical devices, through Read, Sense
// and ReadShared, over an erased page, a data page and a translation page.
// Completion times, read counters and attribution charges must agree: Sense
// is Read without the copy, and ReadShared returns the bytes Read copies,
// in the page's own buffer exactly when the page holds bytes.
func TestSenseMatchesRead(t *testing.T) {
	cfg := testConfig()
	var devs [3]*Device
	var logs [3]*metered
	for i := range devs {
		d, _ := NewDevice(cfg)
		data := bytes.Repeat([]byte{0x3C}, cfg.PageSize)
		if _, err := d.ProgramTyped(0, 9, data, PageData); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProgramTyped(0, 17, data, PageTrans); err != nil {
			t.Fatal(err)
		}
		logs[i] = meter(d)
		devs[i] = d
	}
	buf := make([]byte, cfg.PageSize)
	now := sim.Time(5)
	for _, p := range []PageAddr{3, 9, 17, 9, 17} {
		r0, t0, _, _ := devs[0].WearByType()
		r1, t1, _, _ := devs[1].WearByType()
		r2, t2, _, _ := devs[2].WearByType()
		read, err := logs[0].do(func() (sim.Time, error) { return devs[0].Read(now, p, buf) })
		if err != nil {
			t.Fatal(err)
		}
		sense, err := logs[1].do(func() (sim.Time, error) { return devs[1].Sense(now, p, len(buf)) })
		if err != nil {
			t.Fatal(err)
		}
		var view []byte
		var own bool
		shared, err := logs[2].do(func() (sim.Time, error) {
			var done sim.Time
			view, own, done, err = devs[2].ReadShared(now, p)
			return done, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if read != sense || read != shared {
			t.Fatalf("page %d: Read done %d, Sense done %d, ReadShared done %d", p, read, sense, shared)
		}
		if !bytes.Equal(view, buf) {
			t.Fatalf("page %d: ReadShared returned other bytes than Read", p)
		}
		if own != devs[2].Holds(p) || own && &view[0] != &devs[2].PeekShared(p)[0] {
			t.Fatalf("page %d: ReadShared reports own %v, but the page holds bytes: %v", p, own, devs[2].Holds(p))
		}
		dr0, dt0, _, _ := devs[0].WearByType()
		dr1, dt1, _, _ := devs[1].WearByType()
		dr2, dt2, _, _ := devs[2].WearByType()
		if dr0-r0 != dr1-r1 || dt0-t0 != dt1-t1 || dr0-r0 != dr2-r2 || dt0-t0 != dt2-t2 {
			t.Fatalf("page %d: Read counted (%d data, %d trans), Sense (%d, %d), ReadShared (%d, %d)",
				p, dr0-r0, dt0-t0, dr1-r1, dt1-t1, dr2-r2, dt2-t2)
		}
		now += 3
	}
	if devs[0].Reads() != 5 || devs[1].Reads() != 5 || devs[2].Reads() != 5 {
		t.Fatalf("Reads() = %d / %d / %d, want 5", devs[0].Reads(), devs[1].Reads(), devs[2].Reads())
	}
	if logs[0].dump() != logs[2].dump() {
		t.Fatalf("charges differ:\nRead       %s\nReadShared %s", logs[0].dump(), logs[2].dump())
	}
	if _, trans, _, _ := devs[1].WearByType(); trans != 2 {
		t.Fatalf("Sense counted %d translation reads, want 2", trans)
	}
	if logs[0].dump() != logs[1].dump() {
		t.Fatalf("charges differ:\nRead  %s\nSense %s", logs[0].dump(), logs[1].dump())
	}
	if flash, mapFetch := logs[1].count(telemetry.CompFlash), logs[1].count(telemetry.CompMapFetch); flash != 3 || mapFetch != 2 {
		t.Fatalf("Sense charged flash %d and map fetch %d times, want 3 for data and 2 for trans", flash, mapFetch)
	}
	if _, err := devs[1].Sense(now, 10000, len(buf)); err != ErrOutOfRange {
		t.Fatalf("Sense out of range: err = %v", err)
	}
	if _, err := devs[1].Sense(now, 0, 10); err != ErrBadPageSize {
		t.Fatalf("Sense bad size: err = %v", err)
	}
	if devs[1].Reads() != 5 {
		t.Fatal("a failed Sense counted a read")
	}
}

// TestProgramMoveMatchesSenseAndProgram drives two identical devices through
// a GC-style relocation of a data page and a translation page: one senses
// the page and moves its buffer, the other senses it and programs a copy.
// Completion times, counters and attribution charges must agree, the moved
// page must read back the source's bytes, and the source must hold nothing
// while staying programmed.
func TestProgramMoveMatchesSenseAndProgram(t *testing.T) {
	cfg := testConfig()
	contents := map[PageAddr][]byte{
		9:  bytes.Repeat([]byte{0x3C}, cfg.PageSize),
		17: bytes.Repeat([]byte{0xC3}, cfg.PageSize),
	}
	var devs [2]*Device
	var logs [2]*metered
	for i := range devs {
		d, _ := NewDevice(cfg)
		if _, err := d.ProgramTyped(0, 9, contents[9], PageData); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProgramTyped(0, 17, contents[17], PageTrans); err != nil {
			t.Fatal(err)
		}
		logs[i] = meter(d)
		devs[i] = d
	}
	now := sim.Time(5)
	for _, mv := range []struct {
		src, dst PageAddr
		typ      PageType
	}{{9, 24, PageData}, {17, 25, PageTrans}} {
		var done [2]sim.Time
		for i, d := range devs {
			sensed, err := logs[i].do(func() (sim.Time, error) { return d.Sense(now, mv.src, cfg.PageSize) })
			if err != nil {
				t.Fatal(err)
			}
			done[i], err = logs[i].do(func() (sim.Time, error) {
				if i == 0 {
					return d.ProgramMove(sensed, mv.dst, mv.src, mv.typ)
				}
				return d.ProgramTyped(sensed, mv.dst, contents[mv.src], mv.typ)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if done[0] != done[1] {
			t.Fatalf("page %d: move done %d, copy done %d", mv.src, done[0], done[1])
		}
		now = done[0]

		d := devs[0]
		buf := make([]byte, cfg.PageSize)
		d.Peek(mv.dst, buf)
		if !d.Holds(mv.dst) || !bytes.Equal(buf, contents[mv.src]) {
			t.Fatalf("page %d: moved copy does not read back the source's bytes", mv.src)
		}
		if d.TypeOf(mv.dst) != mv.typ {
			t.Fatalf("page %d: moved copy has OOB type %v, want %v", mv.src, d.TypeOf(mv.dst), mv.typ)
		}
		if d.Holds(mv.src) || d.IsErased(mv.src) || d.TypeOf(mv.src) != mv.typ {
			t.Fatalf("page %d: source after the move: held=%v erased=%v type=%v",
				mv.src, d.Holds(mv.src), d.IsErased(mv.src), d.TypeOf(mv.src))
		}
		if _, err := d.Program(now, mv.src, buf); err != ErrNotErased {
			t.Fatalf("page %d: program to the moved-from page: err = %v, want ErrNotErased", mv.src, err)
		}
	}
	var wear, byType [2][4]int64
	for i, d := range devs {
		wear[i][0], wear[i][1], wear[i][2] = d.Wear()
		wear[i][3] = d.Reads()
		byType[i][0], byType[i][1], byType[i][2], byType[i][3] = d.WearByType()
	}
	if wear[0] != wear[1] || byType[0] != byType[1] {
		t.Fatalf("counters differ: move %v %v, copy %v %v", wear[0], byType[0], wear[1], byType[1])
	}
	if logs[0].dump() != logs[1].dump() {
		t.Fatalf("charges differ:\nmove %s\ncopy %s", logs[0].dump(), logs[1].dump())
	}
	if flash, mapFetch := logs[0].count(telemetry.CompFlash), logs[0].count(telemetry.CompMapFetch); flash != 2 || mapFetch != 2 {
		t.Fatalf("move charged flash %d and map fetch %d times, want 2 each", flash, mapFetch)
	}

	d := devs[0]
	if _, err := d.ProgramMove(now, 26, 9, PageData); err != ErrNoData {
		t.Fatalf("move from an emptied page: err = %v, want ErrNoData", err)
	}
	if _, err := d.ProgramMove(now, 26, 10000, PageData); err != ErrNoData {
		t.Fatalf("move from out of range: err = %v, want ErrNoData", err)
	}
	if _, err := d.ProgramMove(now, 25, 24, PageData); err != ErrNotErased {
		t.Fatalf("move onto a programmed page: err = %v, want ErrNotErased", err)
	}
	if !d.Holds(24) || d.Reads() != 2 {
		t.Fatal("a rejected move changed the device")
	}
}

func TestErrorPaths(t *testing.T) {
	d, _ := NewDevice(testConfig())
	buf := make([]byte, 256)
	if _, err := d.Read(0, 10000, buf); err != ErrOutOfRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Read(0, 0, make([]byte, 10)); err != ErrBadPageSize {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Program(0, 10000, buf); err != ErrOutOfRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Program(0, 0, make([]byte, 10)); err != ErrBadPageSize {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Erase(0, -1); err != ErrBlockOutRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Erase(0, 99); err != ErrBlockOutRange {
		t.Fatalf("err = %v", err)
	}
	if d.IsErased(PageAddr(10000)) {
		t.Fatal("out-of-range page reported erased")
	}
}

func TestLatencyAndChannelContention(t *testing.T) {
	c := testConfig()
	c.Channels = 1 // force full serialization
	d, _ := NewDevice(c)
	data := make([]byte, 256)
	done1, _ := d.Program(0, 0, data)
	if done1 != sim.Time(c.ProgramLatency) {
		t.Fatalf("first program done at %d", done1)
	}
	// Issued at the same instant, the second op queues behind the first.
	buf := make([]byte, 256)
	done2, _ := d.Read(0, 0, buf)
	if done2 != done1.Add(c.ReadLatency) {
		t.Fatalf("second op done at %d, want %d", done2, done1.Add(c.ReadLatency))
	}
	// With 2 channels, ops on different channels proceed in parallel.
	d2, _ := NewDevice(testConfig())
	a, _ := d2.Program(0, 0, data)           // block 0 -> channel 0
	b, _ := d2.Program(0, PageAddr(8), data) // block 1 -> channel 1
	if a != b {
		t.Fatalf("parallel channels serialized: %d vs %d", a, b)
	}
}

func TestWearAccounting(t *testing.T) {
	d, _ := NewDevice(testConfig())
	data := make([]byte, 256)
	d.Program(0, 0, data)
	d.Program(0, 1, data)
	d.Erase(0, 0)
	d.Erase(0, 0)
	d.Erase(0, 1)
	total, maxBlk, progs := d.Wear()
	if total != 3 || maxBlk != 2 || progs != 2 {
		t.Fatalf("wear = (%d,%d,%d)", total, maxBlk, progs)
	}
	buf := make([]byte, 256)
	d.Read(0, 0, buf)
	if d.Reads() != 1 {
		t.Fatalf("reads = %d", d.Reads())
	}
}

// TestReleaseRecyclesBuffer pins Release's contract: it drops a page's bytes
// and nothing else — the page stays programmed with its OOB type, no counter
// moves, and Program to it fails until its block erases — and the next
// program reuses the released buffer without allocating. A later Erase must
// not pool the released buffer a second time.
func TestReleaseRecyclesBuffer(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDevice(cfg)
	data := bytes.Repeat([]byte{0x5A}, cfg.PageSize)
	if _, err := d.ProgramTyped(0, 0, data, PageTrans); err != nil {
		t.Fatal(err)
	}
	buf := dataOf(d, 0)
	erases, maxErases, progs := d.Wear()
	reads := d.Reads()

	d.Release(0)
	if d.Holds(0) || dataOf(d, 0) != nil {
		t.Fatal("released page still holds its bytes")
	}
	if d.IsErased(0) || d.TypeOf(0) != PageTrans {
		t.Fatalf("release changed the page's state: erased=%v type=%v", d.IsErased(0), d.TypeOf(0))
	}
	if e, m, p := d.Wear(); e != erases || m != maxErases || p != progs || d.Reads() != reads {
		t.Fatal("release moved a counter")
	}
	if _, err := d.Program(0, 0, data); err != ErrNotErased {
		t.Fatalf("program to a released page: err = %v, want ErrNotErased", err)
	}
	pooled := d.pool.Len()
	d.Release(0)
	if d.pool.Len() != pooled {
		t.Fatal("a second release pooled the buffer again")
	}

	// Program-release cycles draw the released buffer back every time.
	next := PageAddr(1)
	cycle := func() {
		if _, err := d.Program(0, next, data); err != nil {
			t.Fatal(err)
		}
		if &dataOf(d, next)[0] != &buf[0] {
			t.Fatal("program did not reuse the released buffer")
		}
		d.Release(next)
		next++
	}
	cycle()
	if !sim.RaceEnabled {
		// A first program past the page records' end extends them; extend
		// them over the whole device first, so only buffers are counted.
		d.programmedPage(PageAddr(cfg.TotalPages() - 1))
		alloctest.Exact(t, 100, 0, cycle)
	}

	// Fill the rest of the device, release part of it, erase everything:
	// every buffer lands in the pool exactly once.
	for p := next; int(p) < cfg.TotalPages(); p++ {
		if _, err := d.Program(0, p, data); err != nil {
			t.Fatal(err)
		}
		if p%3 == 0 {
			d.Release(p)
		}
	}
	for b := 0; b < cfg.Blocks; b++ {
		if _, err := d.Erase(0, b); err != nil {
			t.Fatal(err)
		}
	}
	if d.pool.Len() > cfg.TotalPages() {
		t.Fatalf("pool holds %d buffers, more than the %d pages", d.pool.Len(), cfg.TotalPages())
	}
	seen := make(map[*byte]bool, d.pool.Len())
	for _, b := range d.pool.free {
		if seen[&b[0]] {
			t.Fatal("a buffer is pooled twice")
		}
		seen[&b[0]] = true
	}
}

// TestPoolBuffersHeldOnce: random programs, owned programs of buffers
// drawn from the device's pool (as the SSD-Cache draws them), moves,
// releases and erases never leave one buffer held by two pages, in the
// pool twice, or both held by a page and in the pool.
func TestPoolBuffersHeldOnce(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDevice(cfg)
	rng := sim.NewRNG(3)
	var now sim.Time
	owned, moved := 0, 0
	for op := 0; op < 2000; op++ {
		p := PageAddr(rng.Intn(cfg.TotalPages()))
		var done sim.Time
		var err error
		switch rng.Intn(5) {
		case 0:
			if !d.IsErased(p) {
				continue
			}
			done, err = d.Program(now, p, make([]byte, cfg.PageSize))
		case 1:
			if !d.IsErased(p) {
				continue
			}
			done, err = d.ProgramOwned(now, p, d.Pool().Get(), PageData)
			owned++
		case 2:
			src := PageAddr(rng.Intn(cfg.TotalPages()))
			if !d.IsErased(p) || !d.Holds(src) {
				continue
			}
			done, err = d.ProgramMove(now, p, src, PageData)
			moved++
		case 3:
			d.Release(p)
		case 4:
			done, err = d.Erase(now, d.BlockOf(p))
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if done.After(now) {
			now = done
		}
		seen := make(map[*byte]bool)
		for p := 0; p < cfg.TotalPages(); p++ {
			if buf := dataOf(d, PageAddr(p)); buf != nil {
				if seen[&buf[0]] {
					t.Fatalf("op %d: two pages hold one buffer", op)
				}
				seen[&buf[0]] = true
			}
		}
		for _, buf := range d.pool.free {
			if seen[&buf[0]] {
				t.Fatalf("op %d: a buffer is both held and pooled, or pooled twice", op)
			}
			seen[&buf[0]] = true
		}
	}
	if owned == 0 || moved == 0 {
		t.Fatalf("%d owned programs and %d moves; want both", owned, moved)
	}
}

// dataOf returns the buffer page p holds, or nil.
func dataOf(d *Device, p PageAddr) []byte {
	if pg := d.pageOf(p); pg != nil {
		return pg.data
	}
	return nil
}

// Property: whatever sequence of program/erase operations runs, a Read of a
// programmed page always returns exactly the last data programmed into it
// since its containing block's last erase.
func TestReadYourWritesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testConfig()
		d, _ := NewDevice(cfg)
		rng := sim.NewRNG(seed)
		shadow := make(map[PageAddr][]byte)
		var now sim.Time
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // program a random erased page
				p := PageAddr(rng.Intn(cfg.TotalPages()))
				if !d.IsErased(p) {
					continue
				}
				data := make([]byte, cfg.PageSize)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				done, err := d.Program(now, p, data)
				if err != nil {
					return false
				}
				now = done
				shadow[p] = data
			case 1: // erase a random block
				b := rng.Intn(cfg.Blocks)
				done, _ := d.Erase(now, b)
				now = done
				for i := 0; i < cfg.PagesPerBlock; i++ {
					delete(shadow, PageAddr(b*cfg.PagesPerBlock+i))
				}
			case 2: // verify a random page
				p := PageAddr(rng.Intn(cfg.TotalPages()))
				buf := make([]byte, cfg.PageSize)
				done, err := d.Read(now, p, buf)
				if err != nil {
					return false
				}
				now = done
				if want, ok := shadow[p]; ok {
					if !bytes.Equal(buf, want) {
						return false
					}
				} else {
					for _, x := range buf {
						if x != 0xFF {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDeviceRead times a full-size page read: the channel charge plus
// the copy out of a programmed page or the synthesized fill of an erased one.
func BenchmarkDeviceRead(b *testing.B) {
	for _, bc := range []struct {
		name       string
		programmed bool
	}{{"programmed", true}, {"erased", false}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			d, _ := NewDevice(cfg)
			buf := make([]byte, cfg.PageSize)
			if bc.programmed {
				if _, err := d.Program(0, 0, buf); err != nil {
					b.Fatal(err)
				}
			}
			var now sim.Time
			b.SetBytes(int64(cfg.PageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, err := d.Read(now, 0, buf)
				if err != nil {
					b.Fatal(err)
				}
				now = done
			}
		})
	}
}

// BenchmarkDeviceSense times a page read that moves no bytes: the cost an
// unmapped FTL read pays on the device.
func BenchmarkDeviceSense(b *testing.B) {
	cfg := DefaultConfig()
	d, _ := NewDevice(cfg)
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := d.Sense(now, PageAddr(i&1023), cfg.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// BenchmarkDeviceProgram times a full-size page program into an erased
// page, with one block erase amortized over every PagesPerBlock programs:
// the device's share of every host write. Programs cycle through the first
// 16 blocks; after two warm-up passes every buffer comes from the pool, and
// the pool has grown to its steady size.
func BenchmarkDeviceProgram(b *testing.B) {
	cfg := DefaultConfig()
	d, _ := NewDevice(cfg)
	data := bytes.Repeat([]byte{0x5A}, cfg.PageSize)
	ring := 16 * cfg.PagesPerBlock
	var now sim.Time
	program := func(i int) {
		p := PageAddr(i % ring)
		if int(p)%cfg.PagesPerBlock == 0 && !d.IsErased(p) {
			done, err := d.Erase(now, d.BlockOf(p))
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
		done, err := d.Program(now, p, data)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
	for i := 0; i < 2*ring; i++ {
		program(i)
	}
	b.SetBytes(int64(cfg.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		program(i)
	}
}
