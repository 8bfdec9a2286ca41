// Command fkbench is the FaaSKeeper benchmark: it runs one open-loop
// workload inside the simulator and prints its end-to-end metrics (with
// --trace 0) or per-layer metrics (with --trace 1), checking the outputs
// of every run. See README.md for the workloads and the metrics.
//
//	go run . --workload paper-rw --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"faaskeeper/internal/obs"
)

func main() {
	name := flag.String("workload", "", "workload to run: paper-rw, zipf-read-cached or hot-sharded-batched")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "host seconds to spend on measured runs, on a 2-vCPU machine")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fkbench:", err)
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	b := newBench(w, *seed, *seconds)
	// The schedule digest lets two runs with one seed be compared.
	fmt.Printf("fkbench workload=%s seed=%d seconds=%d trace=%d schedule=%s go=%s GOMAXPROCS=%d nproc=%s\n",
		w.name, *seed, *seconds, *trace, b.digest(), runtime.Version(), runtime.GOMAXPROCS(0), nproc())
	var out metrics
	if *trace == 0 {
		out = b.endToEnd()
	} else {
		out = b.perLayer()
	}
	b.report(out)
	// failed_ratio is printed above; the result line carries it as
	// failed/attempted.
	delete(out, "failed_ratio")
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(b.errs) == 0, b.attempted, b.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fkbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func nproc() string {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return fmt.Sprint(runtime.NumCPU())
	}
	return strings.TrimSpace(string(out))
}

// bench runs one workload's reps and collects their results and failures.
type bench struct {
	w        *workload
	seed     int64
	seconds  int
	warm     schedule
	measured schedule
	// Allocations and bytes that dispatching the measured schedule costs
	// by itself.
	dispatchAllocs, dispatchBytes float64

	attempted, failed int
	errs              []string
	virtual           metrics // the first rep's virtual metrics
}

func newBench(w *workload, seed int64, seconds int) *bench {
	b := &bench{w: w, seed: seed, seconds: seconds}
	b.warm = w.makeSchedule(seed+warmSeedOffset, w.rate, w.warmOps, int32(w.nodes))
	b.measured = w.makeSchedule(seed+measuredSeedOffset, w.rate, w.ops, int32(w.nodes+b.warm.writes()))
	b.dispatchAllocs, b.dispatchBytes = dispatchCost(w, b.measured)
	return b
}

// digest is a short hash of the warm-up and measured schedules.
func (b *bench) digest() string {
	h := sha256.New()
	h.Write(b.warm.bytes())
	h.Write(b.measured.bytes())
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("CHECK FAILED:", msg)
	b.errs = append(b.errs, msg)
}

// profileHz is the CPU profile's sampling rate in the traced runs.
const profileHz = 500

// The setup_s median rests on at least minSetups set-ups, and on more,
// up to maxSetups, until set-ups have taken setupBudgetS CPU seconds.
const (
	minSetups    = 5
	maxSetups    = 25
	setupBudgetS = 2.0
)

// rep is one measured run on a fresh deployment.
type rep struct {
	virtual metrics // deterministic per seed
	layer   metrics // virtual per-layer counts and stage times
	cpuUs   float64 // host CPU per client op
	allocs  float64
	allocKB float64
	heapMB  float64
	setupS  float64
	ops     int
	profile []byte
}

// setUp deploys and warms up one fresh deployment, returning it and the
// host CPU seconds that took, or nil after recording why it failed. CPU
// time rather than wall time, because on a shared machine wall time also
// counts other tenants' work.
func (b *bench) setUp(traced bool) (*deploymentRun, float64) {
	runtime.GC()
	t0 := cpuTime()
	r := newRun(b.w, b.seed, traced)
	if r.errs == nil {
		r.runPhase(b.warm)
	}
	setup := (cpuTime() - t0).Seconds()
	if r.errs != nil {
		for _, e := range r.errs {
			b.fail("set-up/warm-up: %s", e)
		}
		r.close()
		return nil, 0
	}
	return r, setup
}

// runRep deploys, warms up and measures one phase. With traced, telemetry
// is on and, with profile, a CPU profile covers the measured phase.
func (b *bench) runRep(traced, profile bool) rep {
	r, setup := b.setUp(traced)
	if r == nil {
		return rep{}
	}
	r.d.Obs.Reset()
	before := r.snapshot()
	r.prepare(b.measured)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var prof bytes.Buffer
	if profile {
		// A higher sampling rate than pprof's 100 Hz resolves the smaller
		// layers; pprof then warns on stderr that the rate is already set.
		// Only the samples' shares are used, so the period it records
		// does not matter.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			b.fail("cpu profile: %v", err)
		}
	}
	start := r.k.Now()
	r.end = start
	r.drive(b.measured)
	if profile {
		pprof.StopCPUProfile()
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.settle()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	after := r.snapshot()

	out := rep{
		ops:     r.attempted,
		cpuUs:   float64(cpu.Microseconds()) / float64(r.attempted),
		allocs:  (float64(m1.Mallocs-m0.Mallocs) - b.dispatchAllocs) / float64(r.attempted),
		allocKB: (float64(m1.TotalAlloc-m0.TotalAlloc) - b.dispatchBytes) / 1024 / float64(r.attempted),
		setupS:  setup,
		profile: prof.Bytes(),
	}
	out.virtual, out.layer = b.phaseMetrics(r, before, after, start)
	r.finalCheck()
	b.attempted += r.attempted
	b.failed += r.failed
	for _, e := range r.errs {
		b.fail("%s", e)
	}
	if r.failed > 0 {
		fmt.Printf("failed ops: %d of %d, e.g. %s\n", r.failed, r.attempted, strings.Join(r.opErrs, "; "))
	}
	// The program's live heap is what the deployment held: the live heap
	// less what is left once it is dropped, which is the benchmark's own
	// records and schedules.
	r.close()
	runtime.GC()
	var rest runtime.MemStats
	runtime.ReadMemStats(&rest)
	runtime.KeepAlive(r)
	out.heapMB = (float64(live.HeapAlloc) - float64(rest.HeapAlloc)) / (1 << 20)
	return out
}

// phaseMetrics computes the measured phase's virtual metrics from the
// benchmark's own timings and the program's counters.
func (b *bench) phaseMetrics(r *deploymentRun, before, after counters, start time.Duration) (metrics, metrics) {
	w := b.w
	e2e, layer := metrics{}, metrics{}
	writes := float64(len(r.writeLat))
	reads := float64(len(r.reads))
	var okWrites []float64
	for _, l := range r.writeLat {
		if l >= 0 {
			okWrites = append(okWrites, l)
		}
	}
	watch := r.watchLatencies()
	for _, err := range []error{
		e2e.setPct("write_p50_ms", okWrites, 50, false),
		e2e.setPct("write_p99_ms", okWrites, 99, false),
		e2e.setPct("read_p50_ms", r.readLat, 50, false),
		e2e.setPct("read_p99_ms", r.readLat, 99, false),
		e2e.setPct("watch_p50_ms", watch, 50, false),
		e2e.setPct("watch_p99_ms", watch, 99, false),
	} {
		if err != nil {
			b.fail("%v", err)
		}
	}
	usd := after.usd - before.usd + r.cacheVMUSD(r.end-start)
	e2e.set("usd_per_1m_ops", usd/float64(r.attempted)*1e6, "usd")
	e2e.set("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")

	d := func(cat string) float64 { return float64(after.counts[cat] - before.counts[cat]) }
	layer.set("queue.msgs_per_write", d("queue.msg")/writes, "count")
	layer.set("faas.billed_ms_per_write", (after.billedSec-before.billedSec)*1000/writes, "ms")
	layer.set("syskv.reads_per_write", d("syskv.read")/writes, "count")
	layer.set("syskv.writes_per_write", d("syskv.write")/writes, "count")
	layer.set("faas.leader_batch", ratio(writes, float64(after.leaderInv-before.leaderInv)), "count")
	layer.set("faas.cold_starts", float64(after.coldStarts-before.coldStarts), "count")
	layer.set("userstore.writes_per_write", (d("obj.write")+d("userkv.write"))/writes, "count")
	layer.set("userstore.reads_per_read", (d("obj.read")+d("userkv.read"))/reads, "count")
	l1, l2, l3 := float64(after.l1-before.l1), float64(after.l2-before.l2), float64(after.l3-before.l3)
	layer.set("cache.l1_hit_ratio", ratio(l1, l1+l2+l3), "ratio")
	layer.set("cache.l2_hit_ratio", ratio(l2, l1+l2+l3), "ratio")
	fills, rejected := float64(after.cache.fills-before.cache.fills), float64(after.cache.rejected-before.cache.rejected)
	layer.set("cache.rejected_fill_ratio", ratio(rejected, fills+rejected), "ratio")
	layer.set("cache.invalidations_per_write", float64(after.cache.invalidations-before.cache.invalidations)/writes, "count")
	layer.set("cache.evictions", float64(after.cache.evictions-before.cache.evictions), "count")
	var byClass [readUnclassified][]float64
	for i, c := range r.readClass {
		if c < readUnclassified {
			byClass[c] = append(byClass[c], r.readLat[i])
		}
	}
	for c, name := range []string{"read.l1_p50_ms", "read.l2_p50_ms", "read.store_p50_ms"} {
		_ = layer.setPct(name, byClass[c], 50, true)
	}
	layer.set("watch.fires_per_write", float64(len(r.fires))/writes, "count")
	layer.set("driver.late_ms_max", ms(r.lateMax), "ms")
	if r.lateMax != 0 {
		b.fail("load generator ran %v late", r.lateMax)
	}

	switch fold := layer["userstore.writes_per_write"].Value; {
	case w.writeFold == "one" && fold != 1:
		b.fail("userstore.writes_per_write = %g, want exactly 1", fold)
	case w.writeFold == "below-one" && fold >= 1:
		b.fail("userstore.writes_per_write = %g, want below 1", fold)
	}
	if hit := layer["cache.l1_hit_ratio"].Value + layer["cache.l2_hit_ratio"].Value; hit < w.minHitRatio {
		b.fail("L1+L2 hit ratio %g below %g", hit, w.minHitRatio)
	}

	if r.d.Obs.Tracer.Enabled() {
		b.stageMetrics(r.d.Obs, layer, writes, mean(okWrites))
	}
	return e2e, layer
}

// Write stages telescope: their per-write means sum to the mean write
// latency.
var writeStages = []string{
	obs.StageSubmit, obs.StageQueue, obs.StageValidate, obs.StageRetry,
	obs.StageLeaderQ, obs.StageCommit, obs.StageFlush, obs.StageRespond,
}

func (b *bench) stageMetrics(h *obs.Hub, layer metrics, writes, meanWrite float64) {
	hists := stageHists(h)
	var sum float64
	for _, st := range writeStages {
		var tot float64
		for _, x := range hists[st] {
			tot += x
		}
		sum += tot / writes
		if st != obs.StageRetry {
			layer.set("stage."+st+"_ms", tot/writes, "ms")
		}
	}
	for _, st := range []string{obs.StageQueue, obs.StageLeaderQ} {
		_ = layer.setPct("stage."+st+"_p99_ms", hists[st], 99, true)
	}
	for _, leg := range []string{obs.SpanStoreWrite, obs.SpanCacheInval, obs.SpanWatchDeliver} {
		layer.set("leg."+leg+"_ms", mean(hists[leg]), "ms")
	}
	if diff := sum - meanWrite; diff > 1e-6*meanWrite || -diff > 1e-6*meanWrite {
		b.fail("write stage means sum to %.6f ms, mean write latency is %.6f ms", sum, meanWrite)
	}
}

// repeat runs body, which measures reps reps, as often as the workload's
// rep time fits into --seconds, and at least min times. The count depends
// only on the arguments, not on how fast the host happens to be, so a run's
// work, and with it its attempted and failed ops, is the same for one seed
// every time.
func (b *bench) repeat(min, reps int, body func()) {
	n := max(min, int(math.Ceil(float64(b.seconds)/(float64(reps)*b.w.repS))))
	for i := 0; i < n && len(b.errs) == 0; i++ {
		body()
	}
}

// checkSame fails the run when a rep's virtual metrics differ from the
// first rep's: virtual time is deterministic per seed.
func (b *bench) checkSame(what string, got metrics) {
	if b.virtual == nil {
		b.virtual = got
		return
	}
	for name, m := range b.virtual {
		if got[name].Value != m.Value {
			b.fail("determinism: %s %s = %v, first run gave %v", what, name, got[name].Value, m.Value)
		}
	}
}

// endToEnd measures the end-to-end metrics: the rate ladder once, then
// untraced reps, reporting host metrics as medians over reps.
func (b *bench) endToEnd() metrics {
	maxRate := b.ladder()
	var cpu, allocs, allocKB, heap, setup []float64
	b.repeat(2, 1, func() {
		r := b.runRep(false, false)
		if r.ops == 0 {
			return
		}
		b.checkSame("untraced", r.virtual)
		cpu, allocs, allocKB = append(cpu, r.cpuUs), append(allocs, r.allocs), append(allocKB, r.allocKB)
		heap, setup = append(heap, r.heapMB), append(setup, r.setupS)
	})
	out := metrics{}
	for name, m := range b.virtual {
		out[name] = m
	}
	out.set("max_rate_ops_s", maxRate, "ops/s")
	out.set("host_cpu_us_per_op", median(cpu), "us")
	out.set("allocs_per_op", median(allocs), "count")
	out.set("alloc_kb_per_op", median(allocKB), "kB")
	out.set("heap_mb", median(heap), "MB")
	// Set-up is short next to a rep, so extra set-ups make its median
	// steadier.
	var spent float64
	for _, t := range setup {
		spent += t
	}
	for (len(setup) < minSetups || spent < setupBudgetS && len(setup) < maxSetups) && len(b.errs) == 0 {
		r, t := b.setUp(false)
		if r != nil {
			r.close()
			setup = append(setup, t)
			spent += t
		}
	}
	out.set("setup_s", median(setup), "s")
	fmt.Printf("reps=%d host_cpu_us_per_op=%v setup_s=%v\n", len(cpu), cpu, setup)
	return out
}

// ladder returns max_rate_ops_s, the offered rate at which the write p99
// reaches the workload's latency limit. A step passes when its write p99
// meets the limit with every write answered and no growing backlog (the
// median write of the last quarter also within the limit). Bisection
// finds a passing step next to a failing one, and the rate is
// interpolated linearly in write p99 between the two. Each step is a
// fresh deployment with the same seed, and its outputs are checked like a
// rep's. Outside the ladder the result is clamped to its end.
func (b *bench) ladder() float64 {
	w := b.w
	rates := w.ladder()
	p99s := make([]float64, len(rates))
	step := func(i int) bool {
		warm := w.makeSchedule(b.seed+warmSeedOffset, rates[i], w.warmOps, int32(w.nodes))
		s := w.makeSchedule(b.seed+measuredSeedOffset, rates[i], w.ladderOps, int32(w.nodes+warm.writes()))
		r := newRun(w, b.seed, false)
		r.runPhase(warm)
		r.runPhase(s)
		lat := sorted(r.writeLat)
		p99, ok := percentile(lat, 99)
		tailP50, _ := percentile(sorted(r.writeLat[len(r.writeLat)*3/4:]), 50)
		pass := ok && r.writeFailed == 0 && p99 <= w.limitMs && tailP50 <= w.limitMs
		fmt.Printf("ladder rate=%g ops/s writes=%d write_p99_ms=%.1f tail_p50_ms=%.1f failed_writes=%d pass=%v\n",
			rates[i], len(lat), p99, tailP50, r.writeFailed, pass)
		for _, e := range r.errs {
			b.fail("ladder rate=%g: %s", rates[i], e)
		}
		r.close()
		p99s[i] = p99
		return pass
	}
	lo, hi := -1, len(rates) // lo passed, hi failed
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; step(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	switch {
	case lo < 0:
		fmt.Printf("ladder: %g ops/s, the lowest step, fails\n", rates[0])
		return rates[0]
	case hi == len(rates):
		fmt.Printf("ladder: %g ops/s, the highest step, passes\n", rates[lo])
		return rates[lo]
	case p99s[hi] <= w.limitMs:
		// The failing step failed on its backlog or a lost write, not on
		// its p99.
		return rates[lo]
	}
	return rates[lo] + (rates[hi]-rates[lo])*(w.limitMs-p99s[lo])/(p99s[hi]-p99s[lo])
}

// perLayer alternates untraced and traced reps: the traced ones give the
// per-layer numbers and a CPU profile, the difference in host CPU per op
// is the tracing overhead, and both must agree on every virtual metric.
func (b *bench) perLayer() metrics {
	var plain, traced []float64
	var layer metrics
	cpuNs := map[string]int64{}
	b.repeat(1, 2, func() {
		u := b.runRep(false, false)
		b.checkSame("untraced", u.virtual)
		t := b.runRep(true, true)
		b.checkSame("traced", t.virtual)
		if u.ops == 0 || t.ops == 0 {
			return
		}
		for name, m := range u.layer {
			if t.layer[name].Value != m.Value {
				b.fail("traced %s = %v, untraced gave %v", name, t.layer[name].Value, m.Value)
			}
		}
		plain, traced = append(plain, u.cpuUs), append(traced, t.cpuUs)
		layer = t.layer
		samples, err := parseCPUProfile(t.profile)
		if err != nil {
			b.fail("%v", err)
			return
		}
		for l, ns := range layerCPU(samples) {
			cpuNs[l] += ns
		}
	})
	if layer == nil {
		return metrics{}
	}
	var total int64
	for _, ns := range cpuNs {
		total += ns
	}
	// Profile shares scale the traced runs' measured CPU per op, so the
	// layers and the unattributed share add up to it.
	for _, l := range cpuLayers {
		layer.set(l+".cpu_us_per_op", ratio(float64(cpuNs[l]), float64(total))*median(traced), "us")
	}
	layer.set("unattributed.cpu_share", ratio(float64(cpuNs[""]), float64(total)), "ratio")
	layer.set("obs.overhead_cpu_us_per_op", median(traced)-median(plain), "us")
	fmt.Printf("reps=%d untraced_cpu_us_per_op=%v traced_cpu_us_per_op=%v\n", len(plain), plain, traced)
	return layer
}

// report prints every metric with its unit and sample count.
func (b *bench) report(out metrics) {
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out[n]
		if m.n > 0 {
			fmt.Printf("  %-36s %14.6f %-6s (n=%d)\n", n, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("  %-36s %14.6f %s\n", n, m.Value, m.Unit)
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
