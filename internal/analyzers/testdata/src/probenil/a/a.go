// Package a seeds probenil violations: calls on a *telemetry.Sink must be
// dominated by a nil check on the same expression.
package a

import telemetry "flatflash/internal/telemetry"

type dev struct {
	obs  *telemetry.Sink
	att  *telemetry.Attribution
	busy bool
}

func (d *dev) unguarded(now telemetry.Time) {
	d.obs.Observe(0, 0, now, now, 1) // want "telemetry.Sink call without nil guard"
}

func (d *dev) wrongGuard(other *dev, now telemetry.Time) {
	if other.obs != nil {
		d.obs.Observe(0, 0, now, now, 1) // want "telemetry.Sink call without nil guard"
	}
}

func (d *dev) guarded(now telemetry.Time) {
	if d.obs != nil {
		d.obs.Observe(0, 0, now, now, 1)
	}
}

func (d *dev) guardedCompound(lat int64, now telemetry.Time) {
	if lat > 0 && d.obs != nil {
		d.obs.Observe(0, 0, now, now+telemetry.Time(lat), 1)
	}
}

func (d *dev) guardedEarlyExit(now telemetry.Time) {
	if d.obs == nil {
		return
	}
	d.obs.Observe(0, 0, now, now, 2)
}

func (d *dev) guardedElse(now telemetry.Time) {
	if d.obs == nil || d.busy {
		d.busy = true
	} else {
		d.obs.Observe(0, 0, now, now, 3)
	}
}

func (d *dev) localCopy(now telemetry.Time) {
	s := d.obs
	if s != nil {
		s.Observe(0, 0, now, now, 4)
	}
}

func (d *dev) suppressed(now telemetry.Time) {
	//lint:ignore probenil caller contract guarantees a sink is attached
	d.obs.Observe(0, 0, now, now, 5)
}

// The concrete consumers' methods are nil-receiver safe: not flagged.
func (d *dev) consumerDirect(lat int64) {
	d.att.Charge(0, lat)
}

// ftlMap mirrors the demand-paged map's FTL side: pipelined write-backs
// suspend attribution through the sink, so the Suspend/Resume pair sits
// behind the same nil guard as every Observe.
type ftlMap struct {
	obs *telemetry.Sink
}

func (f *ftlMap) suspendUnguarded() {
	f.obs.Suspend()      // want "telemetry.Sink call without nil guard"
	defer f.obs.Resume() // want "telemetry.Sink call without nil guard"
}

func (f *ftlMap) suspendGuarded() {
	if f.obs != nil {
		f.obs.Suspend()
		defer f.obs.Resume()
	}
}
