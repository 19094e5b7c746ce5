package analyzers_test

import (
	"testing"

	"flatflash/internal/analyzers"
	"flatflash/internal/analyzers/analyzertest"
)

// TestProbeNil: unguarded *telemetry.Sink calls (including a guard on the
// wrong expression) are flagged; direct, compound, early-exit,
// else-branch, and local-copy guards pass; the telemetry package itself is
// allowlisted; //lint:ignore suppresses.
func TestProbeNil(t *testing.T) {
	analyzertest.Run(t, analyzers.ProbeNil,
		"flatflash/probenil/a",
		"flatflash/internal/telemetry",
	)
}
