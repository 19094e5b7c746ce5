// Package b exercises suppression scope through the real driver: a
// comma-separated directive suppresses every analyzer it names, a directive
// covers only its own line and the next, and a directive above a block does
// not reach the statements inside it.
package b

import "time"

// multiName: walltime is one of the named analyzers, so the read below the
// directive is suppressed.
func multiName() time.Time {
	//lint:ignore walltime,seededrand fixture clock shared with the rand test
	return time.Now()
}

// otherNames: the directive names only other analyzers — walltime still
// fires.
func otherNames() time.Time {
	//lint:ignore seededrand,detflow wrong analyzers for this line
	return time.Now() // want "time.Now reads the wall clock"
}

// aboveBlock: the directive sits above the if-statement, so it covers the
// header line only — the read inside the block is two lines down and fires.
func aboveBlock(on bool) time.Time {
	//lint:ignore walltime covers the if header, not the body
	if on {
		return time.Now() // want "time.Now reads the wall clock"
	}
	return time.Time{}
}

// aboveStatement and trailing are the two blessed placements.
func aboveStatement() time.Time {
	//lint:ignore walltime directly above the offending statement
	return time.Now()
}

func trailing() time.Time {
	return time.Now() //lint:ignore walltime trailing on the same line
}
