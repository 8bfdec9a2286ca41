// Package cloud models the serverless provider substrate FaaSKeeper runs
// on: regions, latency profiles calibrated against the paper's published
// measurements, a pay-as-you-go cost meter, and the execution context
// threaded through every service call.
//
// Subpackages implement the individual services (kv, object, queue, faas,
// network); this package holds what they share.
package cloud

import (
	"fmt"
	"sort"

	"faaskeeper/internal/sim"
)

// Region identifies a cloud region. The reproduction uses two: the home
// region where the service is deployed and a remote region to measure
// cross-region penalties (Figure 4b).
type Region string

// Default regions mirroring the paper's deployments.
const (
	RegionAWSHome   Region = "us-east-1"
	RegionAWSRemote Region = "eu-central-1"
	RegionGCPHome   Region = "us-central1"
)

// Env bundles the kernel, provider profile, and meter shared by all
// services of one simulated deployment.
type Env struct {
	K       *sim.Kernel
	Profile *Profile
	Meter   *Meter
}

// NewEnv creates an environment on kernel k with the given profile.
func NewEnv(k *sim.Kernel, p *Profile) *Env {
	return &Env{K: k, Profile: p, Meter: NewMeter()}
}

// BillSink receives a copy of every meter charge made under a Ctx carrying
// it, at the instant the charge occurs. Deployments use it to attribute
// exact pay-as-you-go dollars to the request (trace) a service call was
// made on behalf of; a nil sink — the default — costs nothing.
type BillSink interface {
	BillOp(category string, usd float64, n int64)
}

// Ctx describes the caller of a cloud-service operation: where it runs and
// how fast its sandbox can move data. Latency models scale their
// size-dependent terms by 1/IOScale and their base terms by 1/CPUScale, so
// small-memory functions see slower I/O (Figures 9, 13) and reduced-vCPU
// functions see slightly slower processing (Section 5.3.2).
type Ctx struct {
	Region   Region
	IOScale  float64
	CPUScale float64
	// ObjScale additionally scales object-store operations; ARM sandboxes
	// set it below 1 to reproduce the leader-function slowdowns of
	// Section 5.3.2.
	ObjScale float64
	// Bill, when non-nil, receives a copy of every charge made through
	// this context (Env.Charge) for per-request cost attribution.
	Bill BillSink
}

// ClientCtx is the context of a plain client VM in the given region
// (full-speed I/O).
func ClientCtx(region Region) Ctx {
	return Ctx{Region: region, IOScale: 1, CPUScale: 1, ObjScale: 1}
}

// ObjFactor returns the latency multiplier for object-store operations.
func (c Ctx) ObjFactor() float64 {
	if c.ObjScale <= 0 {
		return 1
	}
	return 1 / c.ObjScale
}

func (c Ctx) ioScale() float64 {
	if c.IOScale <= 0 {
		return 1
	}
	return c.IOScale
}

func (c Ctx) cpuScale() float64 {
	if c.CPUScale <= 0 {
		return 1
	}
	return c.CPUScale
}

// OpTime computes the duration of one service operation: a base sample
// scaled by CPU speed plus a size-linear transfer term scaled by I/O speed.
func (e *Env) OpTime(ctx Ctx, base sim.Dist, perKB sim.Time, sizeBytes int) sim.Time {
	t := float64(base.Sample(e.K.Rand())) / c64(ctx.cpuScale())
	t += float64(perKB) * float64(sizeBytes) / 1024 / c64(ctx.ioScale())
	if h := e.K.Fault(); h != nil {
		t += float64(h.OpDelay())
	}
	return sim.Time(t)
}

func c64(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// Charge records a pay-as-you-go charge against the environment's meter
// and forwards it to the context's attribution sink when one is set. Every
// service call site charges through here so attributed costs are exactly
// the metered costs — never a re-derivation.
func (e *Env) Charge(ctx Ctx, category string, dollars float64, n int64) {
	e.Meter.Charge(category, dollars, n)
	if ctx.Bill != nil {
		ctx.Bill.BillOp(category, dollars, n)
	}
}

// Meter accumulates pay-as-you-go charges and operation counts, keyed by
// category ("s3.write", "lambda.gbs", ...). It is the ground truth for
// every cost figure in the reproduction.
type Meter struct {
	dollars map[string]float64
	counts  map[string]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{dollars: map[string]float64{}, counts: map[string]int64{}}
}

// Charge adds dollars to a category and bumps its operation count by n.
func (m *Meter) Charge(category string, dollars float64, n int64) {
	m.dollars[category] += dollars
	m.counts[category] += n
}

// Cost returns the accumulated dollars for one category.
func (m *Meter) Cost(category string) float64 { return m.dollars[category] }

// Count returns the accumulated operation count for one category.
func (m *Meter) Count(category string) int64 { return m.counts[category] }

// Total returns the overall accumulated dollars, summed in sorted
// category order so the float result does not depend on map order.
func (m *Meter) Total() float64 {
	var t float64
	for _, c := range m.Categories() {
		t += m.dollars[c]
	}
	return t
}

// Categories returns all categories with charges, sorted.
func (m *Meter) Categories() []string {
	cats := make([]string, 0, len(m.dollars))
	for c := range m.dollars {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
}

// Reset clears all accumulated charges and counts.
func (m *Meter) Reset() {
	m.dollars = map[string]float64{}
	m.counts = map[string]int64{}
}

// Snapshot returns a copy of the per-category dollars.
func (m *Meter) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(m.dollars))
	for c, d := range m.dollars {
		out[c] = d
	}
	return out
}

// String renders the meter content for reports.
func (m *Meter) String() string {
	s := ""
	for _, c := range m.Categories() {
		s += fmt.Sprintf("%-16s $%.6f (%d ops)\n", c, m.dollars[c], m.counts[c])
	}
	return s
}
