package fault

import (
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// WriteOutcome is the fate of one posted MMIO cache-line write at the PCIe
// boundary.
type WriteOutcome uint8

// MMIO write outcomes.
const (
	// WriteOK delivers the full payload.
	WriteOK WriteOutcome = iota
	// WriteDropped loses the posted packet entirely: the SSD never sees it.
	WriteDropped
	// WriteTorn delivers only the first half of the payload.
	WriteTorn
)

// Stats counts faults the engine has actually injected (triggered), per
// class. Scheduled-but-unreached faults do not count.
type Stats struct {
	CrashesFired     int64 // power losses that fired
	ProgramFailures  int64 // NAND page programs failed
	EraseFailures    int64 // NAND block erases failed
	MMIODropped      int64 // posted MMIO writes lost
	MMIOTorn         int64 // posted MMIO writes torn
	BatteryTruncated int64 // crashes where the battery budget applied
}

// Total returns the number of faults injected across all classes.
func (s Stats) Total() int64 {
	return s.CrashesFired + s.ProgramFailures + s.EraseFailures +
		s.MMIODropped + s.MMIOTorn + s.BatteryTruncated
}

type counted struct {
	at        sim.Time
	remaining int
}

// Engine consumes a Plan and answers, at specific virtual times, whether a
// fault fires. Consumers (the flash device, the PCIe link, the FlatFlash
// hierarchy) hold a shared *Engine and consult it on their fast paths; a
// nil *Engine method receiver is valid everywhere and means "no faults", so
// callers do not need nil checks of their own.
type Engine struct {
	rng *sim.RNG // reserved for probabilistic fault classes; fixes the seed in reports

	crashes   []sim.Time
	nextCrash int

	progFails  []counted
	eraseFails []counted
	drops      []counted
	tears      []counted
	battery    []counted // remaining == surviving-page budget; consumed per crash

	obs   *telemetry.Sink // nil when instrumentation is disabled
	stats Stats
}

// NewEngine builds an engine from a validated plan. The seed is recorded
// (and seeds the internal RNG reserved for probabilistic extensions) so a
// plan+seed pair fully determines the injected sequence.
func NewEngine(p Plan, seed uint64) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{rng: sim.NewRNG(seed), crashes: p.sortedCrashes()}
	for _, f := range p {
		c := counted{at: f.At, remaining: f.N}
		switch f.Kind {
		case ProgramFail:
			e.progFails = append(e.progFails, c)
		case EraseFail:
			e.eraseFails = append(e.eraseFails, c)
		case MMIODrop:
			e.drops = append(e.drops, c)
		case MMIOTorn:
			e.tears = append(e.tears, c)
		case BatteryDrain:
			e.battery = append(e.battery, c)
		}
	}
	return e, nil
}

// SetSink attaches the instrumentation sink: one event per injected fault.
// A nil sink disables emission; a nil engine ignores the call.
func (e *Engine) SetSink(s *telemetry.Sink) {
	if e == nil {
		return
	}
	e.obs = s
}

// CrashDue reports whether a scheduled power loss fires at now, consuming
// it. The caller is expected to crash the hierarchy in response; the next
// scheduled crash arms only after that (i.e. after recovery, when the
// caller resumes consulting the engine).
func (e *Engine) CrashDue(now sim.Time) bool {
	if e == nil || e.nextCrash >= len(e.crashes) {
		return false
	}
	if now.Before(e.crashes[e.nextCrash]) {
		return false
	}
	at := e.crashes[e.nextCrash]
	e.nextCrash++
	e.stats.CrashesFired++
	if e.obs != nil {
		e.obs.Observe(telemetry.EvFaultCrash, telemetry.TrackCPU, now, now, int64(at))
	}
	return true
}

// NextCrash returns the next scheduled (unconsumed) power-loss time.
func (e *Engine) NextCrash() (sim.Time, bool) {
	if e == nil || e.nextCrash >= len(e.crashes) {
		return 0, false
	}
	return e.crashes[e.nextCrash], true
}

func consume(list []counted, now sim.Time) bool {
	for i := range list {
		if list[i].remaining > 0 && !now.Before(list[i].at) {
			list[i].remaining--
			return true
		}
	}
	return false
}

// FailProgram reports whether the NAND program issued at now must fail.
func (e *Engine) FailProgram(now sim.Time) bool {
	if e == nil || !consume(e.progFails, now) {
		return false
	}
	e.stats.ProgramFailures++
	if e.obs != nil {
		e.obs.Observe(telemetry.EvFaultNAND, telemetry.TrackFlash, now, now, 0)
	}
	return true
}

// FailErase reports whether the NAND erase issued at now must fail.
func (e *Engine) FailErase(now sim.Time) bool {
	if e == nil || !consume(e.eraseFails, now) {
		return false
	}
	e.stats.EraseFailures++
	if e.obs != nil {
		e.obs.Observe(telemetry.EvFaultNAND, telemetry.TrackFlash, now, now, 1)
	}
	return true
}

// MMIOWrite returns the fate of one posted MMIO cache-line write issued at
// now. Drops take precedence over tears when both are armed.
func (e *Engine) MMIOWrite(now sim.Time) WriteOutcome {
	if e == nil {
		return WriteOK
	}
	if consume(e.drops, now) {
		e.stats.MMIODropped++
		if e.obs != nil {
			e.obs.Observe(telemetry.EvFaultMMIO, telemetry.TrackPCIe, now, now, 0)
		}
		return WriteDropped
	}
	if consume(e.tears, now) {
		e.stats.MMIOTorn++
		if e.obs != nil {
			e.obs.Observe(telemetry.EvFaultMMIO, telemetry.TrackPCIe, now, now, 1)
		}
		return WriteTorn
	}
	return WriteOK
}

// BatteryBudget reports whether a battery-drain fault limits the SSD-Cache
// flush at a crash happening at now, and to how many surviving dirty pages.
// The fault is consumed: it applies to one crash.
func (e *Engine) BatteryBudget(now sim.Time) (keep int, limited bool) {
	if e == nil {
		return 0, false
	}
	for i := range e.battery {
		if e.battery[i].remaining >= 0 && !now.Before(e.battery[i].at) {
			keep = e.battery[i].remaining
			e.battery[i].at = sim.Time(int64(^uint64(0) >> 1)) // consumed: unreachable
			e.stats.BatteryTruncated++
			if e.obs != nil {
				e.obs.Observe(telemetry.EvFaultBattery, telemetry.TrackSSD, now, now, int64(keep))
			}
			return keep, true
		}
	}
	return 0, false
}

// Stats returns the injected-fault counts so far.
func (e *Engine) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return e.stats
}
