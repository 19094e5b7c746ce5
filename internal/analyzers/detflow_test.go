package analyzers_test

import (
	"testing"

	"flatflash/internal/analyzers"
	"flatflash/internal/analyzers/analyzertest"
)

func TestDetFlow(t *testing.T) {
	analyzertest.Run(t, analyzers.DetFlow, "flatflash/detflow/a")
}

// TestMapIter: direct map walks in emit-shaped (or annotated) functions are
// reported at their sinks; collect-then-sort, integer accumulation, and
// non-emitting helpers pass; //lint:ignore suppresses.
func TestMapIter(t *testing.T) {
	analyzertest.Run(t, analyzers.DetFlow, "flatflash/detflow/mapwalk")
}
