// Package a is the auto-fix corpus: every diagnostic outside assignwalk.go
// carries a suggested fix, and TestApplyFixes asserts that applying them
// leaves only assignwalk.go's unfixable reports, gofmt-clean, and stable
// under a second -fix run. No // want comments here — the fix test drives
// the real driver twice instead of matching expectations once.
package a

import "flatflash/internal/telemetry"

type sweeper struct {
	att *telemetry.Attribution
}

var errStop error

// sweepOnce leaks the window on the error path; the fix inserts
// s.att.Abandon() before the leaking return.
func (s *sweeper) sweepOnce(bad bool) error {
	s.att.Begin(nil)
	if bad {
		return errStop
	}
	s.att.End(1, 0)
	return nil
}
