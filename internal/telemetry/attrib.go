package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"

	"flatflash/internal/sim"
	"flatflash/internal/stats"
)

// Component identifies one stage of the hierarchy that latency can be
// attributed to. The taxonomy follows the paper's latency-composition
// argument: byte-granular MMIO wins or loses depending on where an access's
// time goes, so every nanosecond of end-to-end latency is charged to exactly
// one component and the per-access residual (orchestration cost the model
// does not break down further) lands on CompSoftware.
type Component uint8

// Attribution components.
const (
	// CompTLB is address translation: TLB-miss page-table walk latency.
	CompTLB Component = iota
	// CompDRAM is host-DRAM service of cache lines (hits and PLB redirects
	// are charged separately; this is the plain DRAM copy).
	CompDRAM
	// CompHostCache is a coherent host-cache hit service (§3.1).
	CompHostCache
	// CompPLB is the promotion lookaside buffer redirect: DRAM service of an
	// access that raced an in-flight promotion (Figure 4).
	CompPLB
	// CompLink is PCIe time: MMIO round trips, posted writes, and page DMA
	// on the critical path.
	CompLink
	// CompCacheFill is SSD-Cache probe service inside the controller.
	CompCacheFill
	// CompFlash is NAND channel/die service (reads and programs).
	CompFlash
	// CompMapFetch is demand-paged translation-map service: cached-map
	// lookups, translation-page fetches from flash on a map miss, and
	// dirty map-page write-backs (DFTL/FMMU mode; zero when the map is
	// all-in-memory).
	CompMapFetch
	// CompGC is FTL garbage-collection stall time ahead of a host write.
	CompGC
	// CompPromote is promotion work on the critical path: the stall ablation
	// and promotion-completion bookkeeping; background flights are charged
	// to the background account instead.
	CompPromote
	// CompPersist is persistence-barrier work: cache-line flush cost ahead
	// of the persist round trip (§3.5).
	CompPersist
	// CompSoftware is the per-access residual: end-to-end latency minus all
	// explicit component charges. Keeping it as a signed exact sum makes
	// component sums reconcile with the total by construction.
	CompSoftware

	// NumComponents sizes per-component arrays.
	NumComponents
)

var componentNames = [NumComponents]string{
	CompTLB:       "tlb",
	CompDRAM:      "dram",
	CompHostCache: "hostcache",
	CompPLB:       "plb_wait",
	CompLink:      "link",
	CompCacheFill: "cache_fill",
	CompFlash:     "flash",
	CompMapFetch:  "map_fetch",
	CompGC:        "gc",
	CompPromote:   "promote",
	CompPersist:   "persist",
	CompSoftware:  "software",
}

// String returns the component's export name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// TenantAttrib is one account's latency breakdown: a pending per-component
// array for the access in flight, exact per-component sums, per-component
// and end-to-end histograms, and SLO burn counters.
type TenantAttrib struct {
	name    string
	pend    [NumComponents]int64
	touched uint16 // bit c set when pend[c] was charged since Begin
	sums    [NumComponents]int64
	hists   [NumComponents]*stats.Histogram

	total    *stats.Histogram
	sumTotal int64

	win *stats.Histogram // current epoch's end-to-end window for p99 checks

	violations int64 // accesses with end-to-end latency over the SLO
	burn       int64 // total ns of latency in excess of the SLO
	badEpochs  int64 // epochs whose windowed p99 exceeded the SLO
}

func newTenantAttrib(name string) *TenantAttrib {
	t := &TenantAttrib{
		name:  name,
		total: stats.NewHistogram(),
		win:   stats.NewHistogram(),
	}
	for i := range t.hists {
		t.hists[i] = stats.NewHistogram()
	}
	return t
}

// Charge adds d to component c of the account's pending breakdown,
// bypassing the engine's suspension: it is for critical-path work nested
// inside a suspended region (the no-PLB promotion stall), which the access
// still waits for. Nil-safe no-op.
func (t *TenantAttrib) Charge(c Component, d sim.Duration) {
	if t == nil {
		return
	}
	t.add(c, int64(d))
}

// add charges d to pending component c and marks it touched, so Begin and
// End visit only the components an access charged.
func (t *TenantAttrib) add(c Component, d int64) {
	t.pend[c] += d
	t.touched |= 1 << c
}

// Name returns the account name.
func (t *TenantAttrib) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Sum returns the exact accumulated latency charged to component c.
func (t *TenantAttrib) Sum(c Component) int64 {
	if t == nil {
		return 0
	}
	return t.sums[c]
}

// SumTotal returns the exact accumulated end-to-end latency across all
// completed access windows. By construction it equals the sum of Sum(c) over
// all components.
func (t *TenantAttrib) SumTotal() int64 {
	if t == nil {
		return 0
	}
	return t.sumTotal
}

// Hist returns the per-access latency histogram for component c (nil on a
// nil account). Only nonzero charges are recorded, so a component's count is
// "accesses that touched it".
func (t *TenantAttrib) Hist(c Component) *stats.Histogram {
	if t == nil {
		return nil
	}
	return t.hists[c]
}

// Total returns the end-to-end latency histogram (nil on a nil account).
func (t *TenantAttrib) Total() *stats.Histogram {
	if t == nil {
		return nil
	}
	return t.total
}

// Violations returns how many accesses exceeded the SLO.
func (t *TenantAttrib) Violations() int64 {
	if t == nil {
		return 0
	}
	return t.violations
}

// BurnNs returns the total latency, in nanoseconds, accumulated in excess of
// the SLO across all violating accesses (the SLO "error budget burn").
func (t *TenantAttrib) BurnNs() int64 {
	if t == nil {
		return 0
	}
	return t.burn
}

// BadEpochs returns how many epochs closed with windowed p99 over the SLO.
func (t *TenantAttrib) BadEpochs() int64 {
	if t == nil {
		return 0
	}
	return t.badEpochs
}

// Attribution is the latency attribution engine: a set of per-tenant
// accounts, a background account for off-critical-path charges, an SLO with
// burn accounting, and an epoch grid on the virtual clock that checks each
// account's windowed p99 against the SLO and fires the flight recorder on
// violation.
//
// All methods are nil-receiver safe so a nil *Attribution is the disabled,
// zero-cost configuration (mirroring *Registry).
type Attribution struct {
	slo   sim.Duration
	epoch sim.Duration

	began bool
	next  sim.Time

	accounts []*TenantAttrib
	cur      *TenantAttrib
	depth    int // Suspend nesting depth; charges route to background while > 0

	bg [NumComponents]int64 // background charges (suspended or no window)

	rec *FlightRecorder
}

// NewAttribution returns an attribution engine. slo <= 0 disables SLO
// accounting and epoch p99 checks; epoch <= 0 uses DefaultEpoch.
func NewAttribution(slo, epoch sim.Duration) *Attribution {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return &Attribution{slo: slo, epoch: epoch}
}

// SLO returns the configured per-access latency objective (0 if disabled).
func (a *Attribution) SLO() sim.Duration {
	if a == nil {
		return 0
	}
	return a.slo
}

// SetFlightRecorder attaches a recorder that Trigger-fires when an epoch
// closes with an account's windowed p99 over the SLO. No-op on nil.
func (a *Attribution) SetFlightRecorder(r *FlightRecorder) {
	if a == nil {
		return
	}
	a.rec = r
}

// Account returns the account named name, creating it on first use.
// Deterministic: accounts are kept in creation order. Returns nil on a nil
// attribution (TenantAttrib methods and Cell are nil-safe in turn).
func (a *Attribution) Account(name string) *TenantAttrib {
	if a == nil {
		return nil
	}
	for _, t := range a.accounts {
		if t.name == name {
			return t
		}
	}
	t := newTenantAttrib(name)
	a.accounts = append(a.accounts, t)
	return t
}

// Accounts returns all accounts in creation order.
func (a *Attribution) Accounts() []*TenantAttrib {
	if a == nil {
		return nil
	}
	return a.accounts
}

// Background returns the exact latency charged to component c outside any
// access window (promotion flights, victim writebacks, drains).
func (a *Attribution) Background(c Component) int64 {
	if a == nil {
		return 0
	}
	return a.bg[c]
}

// Begin opens an access window for acct: subsequent charges accumulate into
// its pending breakdown until End. Begin resets the pending array, so an
// aborted access (error return between Begin and End) cannot leak charges
// into the next window.
func (a *Attribution) Begin(acct *TenantAttrib) {
	if a == nil {
		return
	}
	a.cur = acct
	if acct != nil {
		for m := acct.touched; m != 0; m &= m - 1 {
			acct.pend[bits.TrailingZeros16(m)] = 0
		}
		acct.touched = 0
	}
}

// Abandon closes the current access window without recording anything
// (error paths, crashes mid-access): subsequent charges route to the
// background account and the pending breakdown is discarded at the next
// Begin.
func (a *Attribution) Abandon() {
	if a == nil {
		return
	}
	a.cur = nil
}

// End closes the current access window with end-to-end latency total,
// observed at virtual time now. The pending charges are folded into the
// account's sums and histograms, the residual (total minus explicit charges)
// is charged to CompSoftware, SLO burn is accounted, and any epoch
// boundaries crossed since the last End run the p99 anomaly check.
// Allocation-free (anomaly triggers excepted).
func (a *Attribution) End(total sim.Duration, now sim.Time) {
	if a == nil || a.cur == nil {
		return
	}
	acct := a.cur
	a.cur = nil
	var charged int64
	for m := acct.touched; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		if v := acct.pend[i]; v != 0 {
			acct.sums[i] += v
			acct.hists[i].Record(sim.Duration(v))
			charged += v
		}
	}
	if residual := int64(total) - charged; residual != 0 {
		// Sums stay exact even when the residual is negative (a component
		// overlapped the end-to-end window); the histogram clamps at zero.
		acct.sums[CompSoftware] += residual
		acct.hists[CompSoftware].Record(sim.Duration(residual))
	}
	acct.sumTotal += int64(total)
	acct.total.Record(total)
	acct.win.Record(total)
	if a.slo > 0 && total > a.slo {
		acct.violations++
		acct.burn += int64(total - a.slo)
	}
	a.tick(now)
}

// Charge attributes d of latency to component comp; a Sink calls it for
// every kind the instrumentation table charges. During an access window
// the charge lands on the current account's pending breakdown; while
// suspended, or outside a window, it lands on the background tally.
func (a *Attribution) Charge(comp Component, d sim.Duration) {
	if a == nil || d <= 0 {
		return
	}
	if a.depth > 0 || a.cur == nil {
		a.bg[comp] += int64(d)
		return
	}
	a.cur.add(comp, int64(d))
}

// Suspend routes subsequent charges to the background account until the
// matching Resume, so off-critical-path work nested inside an access (victim
// writeback, promotion kickoff) does not inflate the access's breakdown.
// Nestable.
func (a *Attribution) Suspend() {
	if a == nil {
		return
	}
	a.depth++
}

// Resume undoes one Suspend.
func (a *Attribution) Resume() {
	if a == nil {
		return
	}
	if a.depth > 0 {
		a.depth--
	}
}

// tick crosses epoch boundaries up to now, closing each account's window
// with a p99-over-SLO check at every boundary.
func (a *Attribution) tick(now sim.Time) {
	if !a.began {
		a.began = true
		a.next = now.Add(a.epoch)
		return
	}
	for !a.next.After(now) {
		a.epochCheck(a.next)
		a.next = a.next.Add(a.epoch)
	}
}

// Finish closes out the epoch grid at now, running the anomaly check for any
// boundaries still pending. Call once at end of run.
func (a *Attribution) Finish(now sim.Time) {
	if a == nil || !a.began {
		return
	}
	for !a.next.After(now) {
		a.epochCheck(a.next)
		a.next = a.next.Add(a.epoch)
	}
}

func (a *Attribution) epochCheck(at sim.Time) {
	if a.slo <= 0 {
		return
	}
	for _, acct := range a.accounts {
		if acct.win.Count() == 0 {
			continue
		}
		if p99 := acct.win.Percentile(99); p99 > a.slo {
			acct.badEpochs++
			a.rec.Trigger("p99_over_slo", at, int64(p99))
		}
		acct.win.Reset()
	}
}

// budgetComponents is the fixed render order of the budget table.
var budgetComponents = [NumComponents]Component{
	CompTLB, CompDRAM, CompHostCache, CompPLB, CompLink, CompCacheFill,
	CompFlash, CompMapFetch, CompGC, CompPromote, CompPersist, CompSoftware,
}

// WriteBudget renders the per-account, per-component latency-budget table.
// Only touched components are listed; each account's component sum_ns column
// adds up exactly to its total row. Output is deterministic (accounts in
// creation order, components in fixed order), so same-seed runs produce
// byte-identical tables. Nil-safe no-op.
func (a *Attribution) WriteBudget(w io.Writer) error {
	if a == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "latency budget (slo=%dns epoch=%dns):\n", int64(a.slo), int64(a.epoch))
	fmt.Fprintf(bw, "  %-12s %-11s %9s %14s %7s %10s %10s %10s\n",
		"account", "component", "count", "sum_ns", "share", "p50_ns", "p99_ns", "max_ns")
	for _, acct := range a.accounts {
		fmt.Fprintf(bw, "  %-12s %-11s %9d %14d %7s %10d %10d %10d\n",
			acct.name, "total", acct.total.Count(), acct.sumTotal, "100.0%",
			int64(acct.total.Percentile(50)), int64(acct.total.Percentile(99)),
			int64(acct.total.Max()))
		for _, c := range budgetComponents {
			h := acct.hists[c]
			if acct.sums[c] == 0 && h.Count() == 0 {
				continue
			}
			share := "-"
			if acct.sumTotal > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(acct.sums[c])/float64(acct.sumTotal))
			}
			fmt.Fprintf(bw, "  %-12s %-11s %9d %14d %7s %10d %10d %10d\n",
				acct.name, c.String(), h.Count(), acct.sums[c], share,
				int64(h.Percentile(50)), int64(h.Percentile(99)), int64(h.Max()))
		}
		if a.slo > 0 {
			fmt.Fprintf(bw, "  %-12s slo: violations=%d burn_ns=%d bad_epochs=%d\n",
				acct.name, acct.violations, acct.burn, acct.badEpochs)
		}
	}
	var bgAny bool
	for _, v := range a.bg {
		if v != 0 {
			bgAny = true
			break
		}
	}
	if bgAny {
		for _, c := range budgetComponents {
			if a.bg[c] == 0 {
				continue
			}
			fmt.Fprintf(bw, "  %-12s %-11s %9s %14d %7s %10s %10s %10s\n",
				"background", c.String(), "-", a.bg[c], "-", "-", "-", "-")
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the attribution as JSON Lines: one object per account
// and component (plus a "total" pseudo-component and, with an SLO, an "slo"
// record), then one "background" object per touched background component.
// Deterministic for the same seed.
func (a *Attribution) WriteJSONL(w io.Writer) error {
	if a == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, acct := range a.accounts {
		fmt.Fprintf(bw, `{"account":"%s","component":"total","count":%d,"sum_ns":%d,"p50_ns":%d,"p99_ns":%d,"max_ns":%d}`+"\n",
			acct.name, acct.total.Count(), acct.sumTotal,
			int64(acct.total.Percentile(50)), int64(acct.total.Percentile(99)),
			int64(acct.total.Max()))
		for _, c := range budgetComponents {
			h := acct.hists[c]
			if acct.sums[c] == 0 && h.Count() == 0 {
				continue
			}
			fmt.Fprintf(bw, `{"account":"%s","component":"%s","count":%d,"sum_ns":%d,"p50_ns":%d,"p99_ns":%d,"max_ns":%d}`+"\n",
				acct.name, c.String(), h.Count(), acct.sums[c],
				int64(h.Percentile(50)), int64(h.Percentile(99)), int64(h.Max()))
		}
		if a.slo > 0 {
			fmt.Fprintf(bw, `{"account":"%s","slo_ns":%d,"violations":%d,"burn_ns":%d,"bad_epochs":%d}`+"\n",
				acct.name, int64(a.slo), acct.violations, acct.burn, acct.badEpochs)
		}
	}
	for _, c := range budgetComponents {
		if a.bg[c] == 0 {
			continue
		}
		fmt.Fprintf(bw, `{"account":"background","component":"%s","sum_ns":%d}`+"\n",
			c.String(), a.bg[c])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return nil
}
