// Package telemetry is a fixture stub with the same shape as the real
// flatflash/internal/telemetry's attribution engine, for the attribwindow
// fixtures: the analyzer recognises the window calls by this import path.
package telemetry

// Time is a virtual timestamp.
type Time int64

// Component is a latency-attribution component id.
type Component uint8

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
