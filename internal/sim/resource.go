package sim

import "fmt"

// Resource models a serially shared piece of hardware with a fixed service
// rate: a PCIe link, a DMA engine, an SSD's flash backend, a NIC port.
// Requests queue FCFS; a request for n bytes issued at time t completes at
//
//	max(t, busyUntil) + Latency + n/Rate
//
// Because the engine always runs the Proc with the smallest clock, updating
// busyUntil eagerly at request time yields the same schedule as a full
// event-driven server model.
type Resource struct {
	// Name identifies the resource in traces and accounting.
	Name string
	// Rate is the service rate in bytes per second. Zero means the
	// resource has no per-byte cost (pure latency).
	Rate int64
	// Latency is the fixed per-request overhead.
	Latency Time

	busyUntil Time
	// accounting
	bytes    int64
	requests int64
	busyTime Time
}

// NewResource returns a resource with the given service rate (bytes/sec)
// and per-request latency.
func NewResource(name string, rate int64, latency Time) *Resource {
	return &Resource{Name: name, Rate: rate, Latency: latency}
}

// ServiceTime reports how long the resource takes to serve n bytes,
// excluding queueing.
func (r *Resource) ServiceTime(n int64) Time {
	d := r.Latency
	if r.Rate > 0 {
		d += Time(n * int64(Second) / r.Rate)
	}
	return d
}

// Use charges the calling Proc a request for n bytes: the Proc's clock
// advances past queueing and service, and the Proc yields.
func (p *Proc) Use(r *Resource, n int64) {
	p.time = p.UseAsync(r, n)
	p.reschedule()
}

// UseAsync reserves service for n bytes without blocking the Proc: the
// request occupies the resource, and the returned time is when it
// completes. This models a hardware engine working in the background (e.g.
// an SSD prefetching into a cache while the CPU moves on).
func (p *Proc) UseAsync(r *Resource, n int64) Time {
	return r.reserve(p.time, n, r.ServiceTime(n))
}

// UsePipelined charges service for n bytes where the resource's fixed
// Latency is pipelined rather than occupying the server: the request's
// completion includes the latency, but back-to-back requests overlap it
// (e.g. NAND access latency behind a deep NVMe queue).
func (p *Proc) UsePipelined(r *Resource, n int64) {
	p.time = p.UseAsyncPipelined(r, n)
	p.reschedule()
}

// UseAsyncPipelined reserves service like UseAsync but treats the fixed
// Latency as pipelined: it occupies the server only for the per-byte
// transfer, while the returned completion time still includes the latency.
func (p *Proc) UseAsyncPipelined(r *Resource, n int64) Time {
	return r.reserve(p.time, n, r.ServiceTime(n)-r.Latency) + r.Latency
}

// reserve occupies the resource for d, starting when both the request
// (issued at now) and the server are ready, and returns when d ends.
func (r *Resource) reserve(now Time, n int64, d Time) Time {
	start := max(now, r.busyUntil)
	r.busyUntil = start + d
	r.bytes += n
	r.requests++
	r.busyTime += d
	return start + d
}

// Stats reports cumulative bytes served, request count, and busy time.
func (r *Resource) Stats() (bytes, requests int64, busy Time) {
	return r.bytes, r.requests, r.busyTime
}

// Reset clears accounting and the queue; for reusing a topology across
// benchmark iterations.
func (r *Resource) Reset() {
	r.busyUntil = 0
	r.bytes = 0
	r.requests = 0
	r.busyTime = 0
}

func (r *Resource) String() string {
	return fmt.Sprintf("%s(rate=%d B/s, lat=%v)", r.Name, r.Rate, r.Latency)
}
