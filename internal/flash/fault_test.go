package flash

import (
	"bytes"
	"errors"
	"testing"

	"flatflash/internal/fault"
)

func TestInjectedProgramAndEraseFailures(t *testing.T) {
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{
		{Kind: fault.ProgramFail, At: 0, N: 1},
		{Kind: fault.EraseFail, At: 0, N: 1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(eng)

	buf := make([]byte, testConfig().PageSize)
	done, err := d.Program(0, 0, buf)
	if !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("first program err = %v, want ErrProgramFailed", err)
	}
	if done <= 0 {
		t.Fatal("failed program attempt paid no latency")
	}
	// The failure budget is spent: the next program succeeds.
	if _, err := d.Program(done, 1, buf); err != nil {
		t.Fatalf("second program: %v", err)
	}

	done, err = d.Erase(done, 0)
	if !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("first erase err = %v, want ErrEraseFailed", err)
	}
	if _, err := d.Erase(done, 0); err != nil {
		t.Fatalf("second erase: %v", err)
	}

	pf, ef := d.FaultCounts()
	if pf != 1 || ef != 1 {
		t.Fatalf("FaultCounts = (%d, %d), want (1, 1)", pf, ef)
	}
}

// TestProgramMoveFailureKeepsSource: an injected program failure during a
// move leaves the source page's buffer in place, so a retry elsewhere moves
// the same bytes.
func TestProgramMoveFailureKeepsSource(t *testing.T) {
	cfg := testConfig()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x77}, cfg.PageSize)
	done, err := d.Program(0, 0, want)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: 0, N: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(eng)

	done, err = d.ProgramMove(done, 8, 0, PageData)
	if !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("move err = %v, want ErrProgramFailed", err)
	}
	buf := make([]byte, cfg.PageSize)
	d.Peek(0, buf)
	if !d.Holds(0) || !bytes.Equal(buf, want) {
		t.Fatal("a failed move lost the source's bytes")
	}
	if d.Holds(8) || d.IsErased(8) {
		t.Fatalf("failed target: held=%v erased=%v, want a non-erased page without bytes", d.Holds(8), d.IsErased(8))
	}
	if _, err := d.ProgramMove(done, 16, 0, PageData); err != nil {
		t.Fatalf("retried move: %v", err)
	}
	d.Peek(16, buf)
	if d.Holds(0) || !bytes.Equal(buf, want) {
		t.Fatal("the retried move did not carry the source's bytes")
	}
	if pf, _ := d.FaultCounts(); pf != 1 {
		t.Fatalf("program failures = %d, want 1", pf)
	}
}

// TestProgramOwnedFailureKeepsBuffer: an injected program failure leaves
// the caller's buffer with the caller, out of the pool, so a retry
// elsewhere programs the same bytes, and only the successful program keeps
// the buffer itself.
func TestProgramOwnedFailureKeepsBuffer(t *testing.T) {
	cfg := testConfig()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: 0, N: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaults(eng)

	want := bytes.Repeat([]byte{0x66}, cfg.PageSize)
	mine := append([]byte(nil), want...)
	done, err := d.ProgramOwned(0, 8, mine, PageData)
	if !errors.Is(err, ErrProgramFailed) || d.Pool().Len() != 0 {
		t.Fatalf("owned program err = %v, pool holds %d; want ErrProgramFailed and an empty pool", err, d.Pool().Len())
	}
	if d.Holds(8) || d.IsErased(8) {
		t.Fatalf("failed target: held=%v erased=%v, want a non-erased page without bytes", d.Holds(8), d.IsErased(8))
	}
	if !bytes.Equal(mine, want) {
		t.Fatal("a failed program changed the caller's buffer")
	}
	if _, err := d.ProgramOwned(done, 16, mine, PageData); err != nil {
		t.Fatalf("retried program: %v", err)
	}
	if view := d.PeekShared(16); &view[0] != &mine[0] {
		t.Fatal("the retried program copied the buffer instead of keeping it")
	}
	if pf, _ := d.FaultCounts(); pf != 1 {
		t.Fatalf("program failures = %d, want 1", pf)
	}
}

func TestNoFaultsWithoutEngine(t *testing.T) {
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testConfig().PageSize)
	if _, err := d.Program(0, 0, buf); err != nil {
		t.Fatalf("program without engine: %v", err)
	}
	if pf, ef := d.FaultCounts(); pf != 0 || ef != 0 {
		t.Fatalf("FaultCounts = (%d, %d) with no engine", pf, ef)
	}
}
