package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"flatflash/internal/sim"
)

// DefaultEpoch is the default sampling interval of the metrics registry.
const DefaultEpoch = sim.Millisecond

// maxRows bounds the sample series so a pathological virtual-time jump
// cannot exhaust memory; sampling stops (and DroppedRows counts) beyond it.
const maxRows = 1 << 20

// Registry samples gauges and rates as epoch time series on the virtual
// clock. Hierarchies register pull-gauges (hit ratios, occupancy, write
// amplification) and rates (promotions per virtual second) at Instrument
// time; every access calls Tick, which samples every column each time
// virtual time crosses an epoch boundary. Several hierarchies may share one
// registry: their columns append in registration order, so a row sampled
// before a later hierarchy registered is a prefix of the later rows.
//
// All methods are nil-receiver safe so call sites need no guards: a nil
// *Registry is the disabled, zero-cost configuration.
type Registry struct {
	epoch sim.Duration

	began bool
	start sim.Time
	next  sim.Time
	last  sim.Time // latest time observed by Tick/Finish

	cols     []column // registration order
	prevRowT sim.Time

	rows    []Row
	dropped int64
}

// column is one sampled series: a gauge, or a rate over a monotonically
// increasing counter.
type column struct {
	name  string
	gauge func() float64 // nil for a rate

	counter string       // a rate's counter name, as Get and the counters line know it
	total   func() int64 // a rate's running total
	prev    int64        // total at the previous row
}

// Row is one sampled epoch: column values in registration order.
type Row struct {
	T    sim.Time
	Vals []float64
}

// NewRegistry returns a registry sampling every epoch of virtual time
// (DefaultEpoch if epoch <= 0).
func NewRegistry(epoch sim.Duration) *Registry {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return &Registry{epoch: epoch}
}

// Epoch returns the sampling interval.
func (r *Registry) Epoch() sim.Duration {
	if r == nil {
		return 0
	}
	return r.epoch
}

// uniqueName suffixes name with #2, #3... if it is already taken, so that
// several instrumented hierarchies can share one registry deterministically.
func (r *Registry) uniqueName(name string) string {
	taken := func(n string) bool {
		for _, c := range r.cols {
			if c.name == n {
				return true
			}
		}
		return false
	}
	if !taken(name) {
		return name
	}
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s#%d", name, i)
		if !taken(n) {
			return n
		}
	}
}

// RegisterGauge registers a pull-gauge sampled at every epoch boundary.
// Duplicate names are made unique with a #N suffix. No-op on nil.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.cols = append(r.cols, column{name: r.uniqueName(name), gauge: fn})
}

// RegisterRate registers a monotonically increasing counter fn whose
// per-virtual-second rate is sampled each epoch as the column
// name+"_per_s". No-op on nil.
func (r *Registry) RegisterRate(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.cols = append(r.cols, column{name: r.uniqueName(name + "_per_s"), counter: name, total: fn})
}

// Get returns the running total of the named counter, summed over every
// rate registered under that name (0 on a nil registry or unknown name).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	var sum int64
	for _, c := range r.cols {
		if c.total != nil && c.counter == name {
			sum += c.total()
		}
	}
	return sum
}

// Start positions the epoch grid at now. Instrument calls it; calling it
// again is a no-op so several hierarchies can share a registry.
func (r *Registry) Start(now sim.Time) {
	if r == nil || r.began {
		return
	}
	r.began = true
	r.start = now
	r.prevRowT = now
	r.last = now
	r.next = now.Add(r.epoch)
}

// Tick observes virtual time now, sampling all gauges at every epoch
// boundary crossed since the last call. Nil-safe and allocation-free when
// no boundary is crossed.
func (r *Registry) Tick(now sim.Time) {
	if r == nil {
		return
	}
	if !r.began {
		r.Start(now)
	}
	if now.After(r.last) {
		r.last = now
	}
	for !r.next.After(now) {
		r.sample(r.next)
		r.next = r.next.Add(r.epoch)
	}
}

// Finish records a final partial-epoch sample at now if any time passed
// since the last row, so short runs still produce a series.
func (r *Registry) Finish(now sim.Time) {
	if r == nil || !r.began {
		return
	}
	r.Tick(now)
	if now.After(r.prevRowT) {
		r.sample(now)
	}
}

func (r *Registry) sample(at sim.Time) {
	if len(r.rows) >= maxRows {
		r.dropped++
		return
	}
	vals := make([]float64, len(r.cols))
	dt := at.Sub(r.prevRowT).Seconds()
	for i := range r.cols {
		c := &r.cols[i]
		if c.gauge != nil {
			vals[i] = sanitize(c.gauge())
			continue
		}
		cur := c.total()
		if dt > 0 {
			vals[i] = sanitize(float64(cur-c.prev) / dt)
		}
		c.prev = cur
	}
	r.prevRowT = at
	r.rows = append(r.rows, Row{T: at, Vals: vals})
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// SeriesNames returns all sampled column names in registration order.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.name
	}
	return out
}

// Rows returns the sampled series.
func (r *Registry) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// DroppedRows returns how many samples were discarded at the maxRows cap.
func (r *Registry) DroppedRows() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// LastObserved returns the latest virtual time seen by Tick or Finish
// (zero on a nil or never-started registry). Callers without their own
// clock — e.g. a benchmark driver sharing one registry across several
// hierarchies — pass it back to Finish.
func (r *Registry) LastObserved() sim.Time {
	if r == nil {
		return 0
	}
	return r.last
}

// Elapsed returns the virtual time between Start and the latest Tick.
func (r *Registry) Elapsed() sim.Duration {
	if r == nil || !r.began {
		return 0
	}
	return r.last.Sub(r.start)
}

// WriteJSONL writes the metrics series as JSON Lines: one object per
// sampled epoch with "t_ns", "epoch", and every column the row sampled,
// followed by one final object with "t_ns" and every rate's counter total
// (see Get), sorted by name. Output is deterministic: column order is
// registration order and counters are sorted, so same-seed runs produce
// byte-identical files.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	names := r.SeriesNames()
	for i, row := range r.rows {
		fmt.Fprintf(bw, `{"t_ns":%d,"epoch":%d`, int64(row.T), i)
		for j, v := range row.Vals {
			fmt.Fprintf(bw, `,"%s":%s`, names[j], formatFloat(v))
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	var counters []string
	for _, c := range r.cols {
		if c.total != nil {
			counters = append(counters, c.counter)
		}
	}
	slices.Sort(counters)
	counters = slices.Compact(counters)
	fmt.Fprintf(bw, `{"t_ns":%d,"counters":{`, int64(r.last))
	for i, name := range counters {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `"%s":%d`, name, r.Get(name))
	}
	if _, err := bw.WriteString("}}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// formatFloat renders v in the shortest form that round-trips, matching
// encoding/json's number formatting for determinism.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
