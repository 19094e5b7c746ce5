package sim

// Resource models a shared piece of hardware (a flash die, the PCIe link,
// a centralized log device) or a lock that serializes its users in virtual
// time. A requester arriving at time t for a service of length d is granted
// the resource at max(t, freeAt) and holds it until grant+d; the gap between
// t and the grant is queueing delay.
//
// Resource is safe for use by a single goroutine (the simulator is
// single-threaded; concurrency between simulated actors is expressed through
// per-actor clocks plus shared Resources).
type Resource struct {
	freeAt Time

	// Stats.
	busy    Duration // total service time granted
	waits   Duration // total queueing delay experienced
	demands int64    // number of acquisitions
}

// NewResource returns an idle resource.
func NewResource() *Resource { return &Resource{} }

// Acquire requests the resource at time now for duration d. It returns the
// time service starts and the time service completes. The caller's clock
// should advance to the completion time if the operation is synchronous.
func (r *Resource) Acquire(now Time, d Duration) (start, done Time) {
	start = now.Max(r.freeAt)
	done = start.Add(d)
	r.freeAt = done
	r.busy += d
	r.waits += start.Sub(now)
	r.demands++
	return start, done
}

// Utilization returns total busy time and total queueing delay accumulated.
func (r *Resource) Utilization() (busy, waited Duration) { return r.busy, r.waits }

// Demands returns the number of acquisitions.
func (r *Resource) Demands() int64 { return r.demands }

// Reset returns the resource to idle and clears statistics.
func (r *Resource) Reset() { *r = Resource{} }
