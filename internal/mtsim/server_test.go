package mtsim

import "testing"

func TestServerOptionsValidate(t *testing.T) {
	bad := []ServerOptions{
		{QueueDepth: -1},
		{Batch: -1},
		{IssueOverhead: -1},
		{SLO: -1},
		{ShedWait: -1},
	}
	for i, opts := range bad {
		if err := opts.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, opts)
		}
	}
	if err := (ServerOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	// ShedWait defaults to half the SLO budget, leaving the rest for service.
	o := ServerOptions{SLO: 100}.withDefaults()
	if o.ShedWait != 50 {
		t.Fatalf("ShedWait default %d, want SLO/2", o.ShedWait)
	}
}
