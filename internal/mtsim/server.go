package mtsim

import (
	"fmt"
	"io"
	"strings"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// ServerOptions configures one open-loop device server: the queueing,
// batching, and admission-control policy in front of a FlatFlash device.
// A Server is one fleet shard; flatflash-sim -openloop runs a one-shard
// fleet.
type ServerOptions struct {
	// QueueDepth bounds the FIFO of admitted-but-unfinished requests; an
	// arrival that finds the queue full is shed. 0 selects the default (256).
	QueueDepth int

	// Batch is how many requests one MMIO doorbell batch may drain; a new
	// batch (and its IssueOverhead) starts when the device was idle or the
	// running batch is full. 0 selects the default (16).
	Batch int

	// IssueOverhead is the per-batch issue cost (the front end's doorbell
	// write and descriptor fetch), amortized across the batch.
	IssueOverhead sim.Duration

	// SLO enables SLO-aware admission control: an arrival whose estimated
	// queue wait exceeds ShedWait is shed before it can blow the tail, and
	// completions beyond SLO are counted as violations. 0 disables both.
	SLO sim.Duration

	// ShedWait is the admission threshold on estimated queue wait. 0 selects
	// SLO/2, leaving the other half of the budget for service time.
	ShedWait sim.Duration

	// Attrib attaches a per-server latency attribution engine (PR 6) so the
	// server's ops get component-level budgets; implied by SLO > 0.
	Attrib bool

	// Flight, when non-nil, receives a "shed_onset" anomaly trigger each
	// time the server transitions from admitting to shedding.
	Flight *telemetry.FlightRecorder
}

// withDefaults resolves zero fields to their defaults.
func (o ServerOptions) withDefaults() ServerOptions {
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.Batch == 0 {
		o.Batch = 16
	}
	if o.SLO > 0 && o.ShedWait == 0 {
		o.ShedWait = o.SLO / 2
	}
	return o
}

// Validate checks the options.
func (o ServerOptions) Validate() error {
	switch {
	case o.QueueDepth < 0:
		return fmt.Errorf("mtsim: negative queue depth %d", o.QueueDepth)
	case o.Batch < 0:
		return fmt.Errorf("mtsim: negative batch %d", o.Batch)
	case o.IssueOverhead < 0:
		return fmt.Errorf("mtsim: negative issue overhead %v", o.IssueOverhead)
	case o.SLO < 0:
		return fmt.Errorf("mtsim: negative SLO %v", o.SLO)
	case o.ShedWait < 0:
		return fmt.Errorf("mtsim: negative shed wait %v", o.ShedWait)
	}
	return nil
}

// Server simulates one FlatFlash device under open-loop load: requests
// Arrive at externally dictated times, wait in a bounded FIFO, and are
// served in arrival order. Everything is deterministic in virtual time.
type Server struct {
	ff    *core.FlatFlash
	t     *core.Tenant
	base  uint64
	opts  ServerOptions
	att   *telemetry.Attribution
	hist  *stats.Histogram
	waits *stats.Histogram

	// pending holds the completion times of admitted-but-unfinished
	// requests; FIFO service makes it non-decreasing, so queue depth at an
	// arrival is a front-prune plus a length.
	pending []sim.Time

	arrivals  int64
	admitted  int64
	shedQueue int64
	shedSLO   int64
	sloViol   int64
	batches   int64
	batchFill int
	maxDepth  int
	busy      sim.Duration
	shedding  bool
	scratch   []byte
}

// NewServer builds a server over a fresh device. The mapped region covers
// regionBytes of the global address space (persistent when the spec needs
// barriers), so request offsets are global offsets on every server — which
// is what lets the fleet re-route a page without rewriting addresses.
func NewServer(dev core.Config, mixSpec string, regionBytes uint64, opts ServerOptions) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ff, err := core.NewFlatFlash(dev)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ff:      ff,
		t:       ff.SelfTenant(),
		opts:    opts,
		hist:    stats.NewHistogram(),
		waits:   stats.NewHistogram(),
		scratch: make([]byte, workload.RecordBytes),
	}
	if opts.Attrib || opts.SLO > 0 {
		s.att = telemetry.NewAttribution(opts.SLO, 0)
		ff.SetAttribution(s.att)
	}
	persistent := false
	for _, mix := range strings.Split(mixSpec, "+") {
		if workload.MixPersistent(mix) {
			persistent = true
		}
	}
	var reg core.Region
	if persistent {
		reg, err = s.t.MmapPersistent(regionBytes)
	} else {
		reg, err = s.t.Mmap(regionBytes)
	}
	if err != nil {
		return nil, err
	}
	s.base = reg.Base
	return s, nil
}

// Arrive offers one request to the server at virtual time at. It returns
// whether the request was admitted (a shed request costs the device
// nothing). at must be non-decreasing across calls.
func (s *Server) Arrive(at sim.Time, op workload.AccessOp) (bool, error) {
	s.arrivals++
	for len(s.pending) > 0 && s.pending[0] <= at {
		s.pending = s.pending[1:]
	}
	depth := len(s.pending)
	frontier := s.t.Now()
	var wait sim.Duration
	if frontier > at {
		wait = frontier.Sub(at)
	}
	if depth >= s.opts.QueueDepth {
		s.shed(at, s.shedQueue+s.shedSLO)
		s.shedQueue++
		return false, nil
	}
	if s.opts.SLO > 0 && wait > s.opts.ShedWait {
		s.shed(at, s.shedQueue+s.shedSLO)
		s.shedSLO++
		return false, nil
	}
	s.shedding = false
	s.admitted++

	// Batched MMIO issue: an idle device (or a full running batch) opens a
	// new doorbell batch and pays the issue overhead once for it.
	start := at
	if frontier > at {
		start = frontier
	}
	if depth == 0 || s.batchFill >= s.opts.Batch {
		s.batches++
		s.batchFill = 0
		s.t.AdvanceTo(start)
		s.t.AdvanceTo(s.t.Now().Add(s.opts.IssueOverhead))
	} else {
		s.t.AdvanceTo(start)
	}
	s.batchFill++

	if _, err := runOp(s.t, s.base, op, s.scratch); err != nil {
		return false, err
	}
	comp := s.t.Now()
	resp := comp.Sub(at)
	s.hist.Record(resp)
	s.waits.Record(wait)
	if s.opts.SLO > 0 && resp > s.opts.SLO {
		s.sloViol++
	}
	s.busy += comp.Sub(start)
	s.pending = append(s.pending, comp)
	if len(s.pending) > s.maxDepth {
		s.maxDepth = len(s.pending)
	}
	return true, nil
}

// shed records a shedding transition: the first shed after an admitting
// stretch fires a flight-recorder anomaly trigger.
func (s *Server) shed(at sim.Time, already int64) {
	if !s.shedding {
		s.shedding = true
		s.opts.Flight.Trigger("shed_onset", at, already)
	}
}

// Occupy blocks the device for d starting no earlier than at — the fleet
// charges cross-shard page-migration copies through this.
func (s *Server) Occupy(at sim.Time, d sim.Duration) {
	s.t.AdvanceTo(at)
	s.t.AdvanceTo(s.t.Now().Add(d))
	s.busy += d
}

// Finish settles the attribution engine at the device frontier. Call once,
// after the last Arrive.
func (s *Server) Finish() {
	s.ff.Attribution().Finish(s.t.Now())
}

// Accessors for the fleet's aggregates and reports.

// Arrivals returns how many requests were offered.
func (s *Server) Arrivals() int64 { return s.arrivals }

// Admitted returns how many requests were admitted and served.
func (s *Server) Admitted() int64 { return s.admitted }

// Shed returns how many requests were shed (queue-full plus SLO admission).
func (s *Server) Shed() int64 { return s.shedQueue + s.shedSLO }

// ShedRate returns the shed fraction of offered requests.
func (s *Server) ShedRate() float64 {
	if s.arrivals == 0 {
		return 0
	}
	return float64(s.Shed()) / float64(s.arrivals)
}

// SLOViolations returns how many admitted requests finished beyond the SLO.
func (s *Server) SLOViolations() int64 { return s.sloViol }

// Hist returns the admitted-request response-time histogram (wait+service).
func (s *Server) Hist() *stats.Histogram { return s.hist }

// Waits returns the admitted-request queue-wait histogram.
func (s *Server) Waits() *stats.Histogram { return s.waits }

// Makespan returns the device's virtual-time frontier.
func (s *Server) Makespan() sim.Duration { return s.t.Now().Sub(0) }

// Busy returns the total virtual time the device spent serving (or
// migrating); Makespan minus Busy is idle time.
func (s *Server) Busy() sim.Duration { return s.busy }

// Promotions returns the device's page promotions — the fleet's DRAM-budget
// saturation signal.
func (s *Server) Promotions() int64 { return s.t.Promotions() }

// DRAMFrames returns the device's promotion frame capacity.
func (s *Server) DRAMFrames() int {
	cfg := s.ff.Config()
	return int(cfg.DRAMBytes / uint64(cfg.PageSize))
}

// Attribution returns the server's attribution engine (nil unless enabled).
func (s *Server) Attribution() *telemetry.Attribution { return s.att }

// Counters returns the device's counter snapshot source.
func (s *Server) Counters() *stats.Counters { return s.ff.Counters() }

// Throughput returns admitted requests per virtual second.
func (s *Server) Throughput() float64 {
	if s.Makespan() <= 0 {
		return 0
	}
	return float64(s.admitted) / s.Makespan().Seconds()
}

// WriteReport renders the server's one-line report as device id. The line is
// deterministic — fixed field order, fixed precision, integer nanoseconds —
// and shared verbatim between the fleet report and flatflash-sim -openloop,
// whose committed goldens the degenerate-fleet gate compares it against.
func (s *Server) WriteReport(w io.Writer, id int) error {
	_, err := fmt.Fprintf(w,
		"  dev=%d arrivals=%d admitted=%d shed=%d shed_queue=%d shed_slo=%d shed_rate=%.4f batches=%d qdepth_max=%d wait_p99_ns=%d mean_ns=%d p50_ns=%d p99_ns=%d slo_violations=%d ops_per_s=%.1f busy_ns=%d makespan_ns=%d\n",
		id, s.arrivals, s.admitted, s.Shed(), s.shedQueue, s.shedSLO, s.ShedRate(),
		s.batches, s.maxDepth, int64(s.waits.Percentile(99)),
		int64(s.hist.Mean()), int64(s.hist.Percentile(50)), int64(s.hist.Percentile(99)),
		s.sloViol, s.Throughput(), int64(s.busy), int64(s.Makespan()))
	return err
}
