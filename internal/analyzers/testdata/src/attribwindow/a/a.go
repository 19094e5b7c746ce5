// Package a exercises attribwindow: Begin/End/Abandon window pairing on
// all paths, Charge domination, and Suspend/Resume balance.
package a

import "flatflash/internal/telemetry"

type hier struct {
	att *telemetry.Attribution
}

var errBoom error

// --- legal shapes ---

// straightLine: the canonical window.
func straightLine(s *hier) {
	s.att.Begin(nil)
	s.att.Charge(1, 10)
	s.att.End(10, 0)
}

// earlyReturnAbandoned: the error path discards the window before leaving.
func earlyReturnAbandoned(s *hier, bad bool) error {
	s.att.Begin(nil)
	if bad {
		s.att.Abandon()
		return errBoom
	}
	s.att.End(5, 0)
	return nil
}

// branchBothEnd: every branch closes the window.
func branchBothEnd(s *hier, fast bool) {
	s.att.Begin(nil)
	if fast {
		s.att.End(1, 0)
	} else {
		s.att.Charge(2, 9)
		s.att.End(9, 0)
	}
}

// loopCarriedCharge: Begin dominates the Charges inside the loop on every
// iteration (the back edge keeps the window open).
func loopCarriedCharge(s *hier, n int) {
	s.att.Begin(nil)
	for i := 0; i < n; i++ {
		s.att.Charge(3, 4)
	}
	s.att.End(100, 0)
}

// abandonWhenClosed: Abandon without an open window is the Crash() pattern
// — discard whatever may be in flight — and always legal.
func abandonWhenClosed(s *hier) {
	s.att.Begin(nil)
	s.att.End(2, 0)
	s.att.Abandon()
}

// suspendPaired: nested Suspend/Resume balance out.
func suspendPaired(s *hier) {
	s.att.Begin(nil)
	s.att.Suspend()
	s.att.Suspend()
	s.att.Resume()
	s.att.Resume()
	s.att.End(7, 0)
}

// pauser: any interface with niladic
// Suspend/Resume is an attribution receiver.
type pauser interface {
	Suspend()
	Resume()
}

// guardedDeferResume: the conditional Suspend pairs with a deferred Resume
// registered on the same path — the shape flushWriteBacks uses.
func guardedDeferResume(p pauser, work func() error) error {
	if p != nil {
		p.Suspend()
		defer p.Resume()
	}
	return work()
}

// closedOverWindow: a func literal is its own function with its own window
// discipline.
func closedOverWindow(s *hier) func() {
	return func() {
		s.att.Begin(nil)
		s.att.End(1, 0)
	}
}

// chargeOnlyCaller has no Begin: it charges into a window some caller
// opened (the substrate pattern: pcie, flash, plb). Out of scope.
func chargeOnlyCaller(s *hier) {
	s.att.Charge(4, 2)
}

// --- violations ---

// leakOnReturn: the early return leaks the open window.
func leakOnReturn(s *hier, bad bool) error {
	s.att.Begin(nil)
	if bad {
		return errBoom // want "window opened by s\.att\.Begin is still open at this return"
	}
	s.att.End(3, 0)
	return nil
}

// leakOnPanic: panicking inside the window leaks it too.
func leakOnPanic(s *hier, bad bool) {
	s.att.Begin(nil)
	if bad {
		panic("boom") // want "window opened by s\.att\.Begin is still open when the function exits here"
	}
	s.att.End(3, 0)
}

// branchOnlyEnd: End on one branch only; the second End sees the window
// open on only some paths.
func branchOnlyEnd(s *hier, fast bool) {
	s.att.Begin(nil)
	if fast {
		s.att.End(1, 0)
	}
	s.att.End(2, 0) // want "End reached with the window open on only some paths"
}

// doubleEnd folds the window twice.
func doubleEnd(s *hier) {
	s.att.Begin(nil)
	s.att.End(1, 0)
	s.att.End(1, 0) // want "End without an open window on this path"
}

// beginWhileOpen: re-entering Begin without closing.
func beginWhileOpen(s *hier) {
	s.att.Begin(nil)
	s.att.Begin(nil) // want "Begin while the previous window is still open"
	s.att.End(1, 0)
}

// chargeBeforeBegin: the Charge is not dominated by the Begin below it.
func chargeBeforeBegin(s *hier) {
	s.att.Charge(1, 5) // want "Charge not dominated by Begin"
	s.att.Begin(nil)
	s.att.End(5, 0)
}

// chargeOnSomePaths: Begin happens on one branch only.
func chargeOnSomePaths(s *hier, fast bool) {
	if fast {
		s.att.Begin(nil)
	}
	s.att.Charge(1, 2) // want "Charge reached with a window open on only some paths"
	s.att.Abandon()
}

// suspendLeaked: the error path returns with the suspension still held.
func suspendLeaked(s *hier, bad bool) error {
	s.att.Suspend()
	if bad {
		return errBoom // want "s\.att\.Suspend is not Resumed on this path"
	}
	s.att.Resume()
	return nil
}

// resumeUnderflow: Resume outruns Suspend.
func resumeUnderflow(s *hier) {
	s.att.Resume() // want "Resume without a matching Suspend on this path"
	s.att.Suspend()
	s.att.Resume()
}

// conditionalSuspendNoDefer: the guarded Suspend without a same-path Resume
// leaves the depth unbalanced at the join.
func conditionalSuspendNoDefer(p pauser, on bool) {
	if on {
		p.Suspend()
	}
	p.Resume() // want "Resume reached with unbalanced suspend depth across paths"
}
