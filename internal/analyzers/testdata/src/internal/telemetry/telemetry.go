// Package telemetry is a fixture stub with the same shape as the real
// flatflash/internal/telemetry: a *Sink every layer reports through, whose
// calls sit behind nil checks. The package itself sits on probenil's
// allowlist, so the unguarded forwarding below is tolerated here and
// nowhere else.
package telemetry

type (
	SpanKind uint8
	Track    uint8
	Time     int64
)

// Component is a latency-attribution component id.
type Component uint8

// Sink is the one instrumentation seam; a nil *Sink is the disabled path.
type Sink struct{ att *Attribution }

// Observe reports one interval.
func (s *Sink) Observe(kind SpanKind, track Track, start, end Time, arg int64) {}

// Suspend forwards to the attribution.
func (s *Sink) Suspend() { s.att.Suspend() }

// Resume forwards to the attribution.
func (s *Sink) Resume() { s.att.Resume() }

// Forward relays to a sink its caller already validated; allowlisted.
func Forward(s *Sink, kind SpanKind, at Time) { s.Observe(kind, 0, at, at, 0) }

// TenantAttrib is one attribution account.
type TenantAttrib struct{ pend [4]int64 }

// Attribution mirrors the real engine's window protocol (Begin/End/Abandon,
// Charge routing, Suspend/Resume nesting) closely enough for attribwindow
// fixtures; the bodies are irrelevant — the analyzer only sees the calls.
type Attribution struct{ open bool }

// Begin opens an access window charging to acct.
func (a *Attribution) Begin(acct *TenantAttrib) { a.open = true }

// End closes the window, folding the measured total.
func (a *Attribution) End(total int64, now Time) { a.open = false }

// Abandon discards any in-flight window.
func (a *Attribution) Abandon() { a.open = false }

// Charge routes d to comp inside the open window (or background).
func (a *Attribution) Charge(comp Component, d int64) {}

// Suspend diverts charges to the background account; nestable.
func (a *Attribution) Suspend() {}

// Resume undoes one Suspend.
func (a *Attribution) Resume() {}
