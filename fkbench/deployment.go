package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// The op schedules of one deployment come from the workload seed through
// these fixed offsets, so warm-up and measured traffic differ.
const (
	warmSeedOffset     = 0x5157
	measuredSeedOffset = 0x3a11
)

// writeRec is what the benchmark knows about one write id.
type writeRec struct {
	key   int32
	due   sim.Time // absolute virtual due time
	mzxid int64    // from the acknowledgement; 0 while unacknowledged
}

// readRec is one completed read, checked against the write table once the
// phase has drained.
type readRec struct {
	key   int32
	wid   int32
	mzxid int64
}

// fire is one delivered watch notification.
type fire struct {
	key  int32
	txid int64
	at   sim.Time
}

// Read classes by the CacheStats delta around a read.
const (
	readL1 uint8 = iota
	readL2
	readStore
	readUnclassified // overlapped another read of its session
)

// session is one client session of the benchmark. busy and overlap let a read be
// classified by the CacheStats delta around it only when no other read of
// the same session overlapped it.
type session struct {
	c       *fkclient.Client
	busy    int
	overlap int
	floor   []int64 // per key: newest mzxid a finished read saw (Z3)
}

// task is one client op handed to a worker process: a scheduled op, with
// its due time made absolute, or a watch re-arm.
type task struct {
	op
	txid int64 // opRearm: the notification's txid
}

// worker is a kernel process that runs tasks one at a time. Idle workers
// are reused, so an op costs no process spawn once enough exist.
type worker struct {
	wake *sim.Semaphore
	t    task
}

// deploymentRun is one fresh deployment driven through set-up, warm-up
// and one measured phase.
type deploymentRun struct {
	w      *workload
	k      *sim.Kernel
	d      *core.Deployment
	writer []*session
	reader []*session
	watch  []*session

	goroutines int // goroutines before the deployment started

	paths   []string                 // node path per key
	watchCB []fkclient.WatchCallback // per watched key, its re-arming callback
	idle    []*worker

	writes    []writeRec
	phaseWID0 int32 // first write id of the current phase

	// Per phase, allocated at full size by prepare.
	attempted, answered, failed int
	writeFailed                 int       // writes that errored or were never answered
	errs                        []string  // failed output checks
	opErrs                      []string  // sample of failed client ops
	writeLat                    []float64 // ms, indexed like the phase's writes
	readLat                     []float64 // ms, scheduled reads
	readClass                   []uint8   // per readLat entry
	reads                       []readRec
	fires                       []fire
	payloads                    []byte // the phase's write payloads, in write id order
	lateMax                     sim.Time
	end                         sim.Time // last completion
}

// errorf records a failed output check.
func (r *deploymentRun) errorf(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// opErr records a client op that returned an error. The op counts as
// failed; the first few errors are kept for the report.
func (r *deploymentRun) opErr(format string, args ...any) {
	if len(r.opErrs) < 5 {
		r.opErrs = append(r.opErrs, fmt.Sprintf(format, args...))
	}
}

// newRun deploys, preloads every node, connects the sessions and arms the
// watchers. It must be followed by runPhase calls and close.
func newRun(w *workload, seed int64, traced bool) *deploymentRun {
	goroutines := runtime.NumGoroutine()
	k := sim.NewKernel(seed)
	cfg := w.config()
	cfg.Telemetry = traced
	r := &deploymentRun{w: w, k: k, d: core.NewDeployment(k, cfg), goroutines: goroutines}
	r.writes = make([]writeRec, w.nodes)
	r.paths = make([]string, w.nodes)
	for key := range r.writes {
		r.writes[key] = writeRec{key: int32(key)}
		r.paths[key] = w.nodePath(key)
	}
	r.watchCB = make([]fkclient.WatchCallback, w.watched)
	k.Go("setup", func() {
		connect := func(role string, n int) []*session {
			out := make([]*session, n)
			for i := range out {
				c, err := fkclient.Connect(r.d, fmt.Sprintf("%s-%d", role, i), r.d.Cfg.Profile.Home)
				if err != nil {
					r.errorf("connect %s-%d: %v", role, i, err)
					return nil
				}
				out[i] = &session{c: c, floor: make([]int64, w.nodes)}
			}
			return out
		}
		r.writer = connect("writer", w.writers)
		r.reader = connect("reader", w.readers)
		r.watch = connect("watcher", w.watchers)
		if r.errs != nil {
			return
		}
		for s := 0; s < w.subtrees; s++ {
			if _, err := r.writer[0].c.Create(fmt.Sprintf("/s%d", s), nil, 0); err != nil {
				r.errorf("create subtree %d: %v", s, err)
			}
		}
		// Each writer creates its share of the nodes concurrently.
		wg := sim.NewWaitGroup(k)
		for i, s := range r.writer {
			i, s := i, s
			wg.Add(1)
			k.Go("preload", func() {
				defer wg.Done()
				for key := i; key < w.nodes; key += len(r.writer) {
					if _, err := s.c.Create(r.paths[key], payload(int32(key), w.payloadB), 0); err != nil {
						r.errorf("preload %d: %v", key, err)
					}
				}
			})
		}
		wg.Wait()
		for key := 0; key < w.watched; key++ {
			r.arm(int32(key))
		}
	})
	k.Run()
	return r
}

// arm registers a one-shot data watch on key and re-arms it each time it
// fires. Re-arming reads are checked and counted as client ops.
func (r *deploymentRun) arm(key int32) {
	path := r.paths[key]
	r.watchCB[key] = func(n core.Notification) {
		r.fires = append(r.fires, fire{key: key, txid: n.Txid, at: r.k.Now()})
		if n.Path != path {
			r.errorf("watch on %s fired for %s", path, n.Path)
		}
		r.attempted++
		r.dispatch(task{op: op{kind: opRearm, key: key}, txid: n.Txid})
	}
	if _, ok := r.read(r.watcherOf(key), key, r.watchCB[key], 0); !ok {
		r.errorf("arming the watch on %s failed", path)
	}
}

func (r *deploymentRun) watcherOf(key int32) *session { return r.watch[int(key)%len(r.watch)] }

// dispatch hands t to an idle worker, or to a new one when none is idle.
func (r *deploymentRun) dispatch(t task) {
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		w.t = t
		w.wake.Release()
		return
	}
	w := &worker{wake: sim.NewSemaphore(r.k, 0), t: t}
	r.k.Go("worker", func() {
		for {
			r.do(w.t)
			r.idle = append(r.idle, w)
			w.wake.Acquire()
		}
	})
}

// dispatchCost measures what driving s costs in allocations and bytes
// when every op does nothing: the generator's sleeps and the
// hand-offs to workers, all kernel work the benchmark causes. The
// allocation metrics subtract it, so they count the program's work.
func dispatchCost(w *workload, s schedule) (allocs, bytes float64) {
	r := &deploymentRun{w: w, k: sim.NewKernel(1)}
	r.prepare(s)
	idle := schedule{ops: make([]op, len(s.ops))}
	for i, o := range s.ops {
		o.kind = opNone
		idle.ops[i] = o
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.drive(idle)
	runtime.ReadMemStats(&m1)
	r.k.Shutdown()
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// do runs one task and checks what it can at once.
func (r *deploymentRun) do(t task) {
	switch t.kind {
	case opRead:
		_, ok := r.read(r.reader[t.session], t.key, nil, t.due)
		r.finish(ok)
	case opWrite:
		i := int(t.wid-r.phaseWID0) * r.w.payloadB
		data := r.payloads[i : i+r.w.payloadB : i+r.w.payloadB]
		stat, err := r.writer[t.session].c.SetData(r.paths[t.key], data, -1)
		if err != nil {
			r.opErr("set_data %s: %v", r.paths[t.key], err)
		} else {
			r.writes[t.wid].mzxid = stat.Mzxid
			r.writeLat[t.wid-r.phaseWID0] = ms(r.k.Now() - t.due)
		}
		r.finish(err == nil)
	case opRearm:
		mzxid, ok := r.read(r.watcherOf(t.key), t.key, r.watchCB[t.key], 0)
		r.finish(ok)
		// Z4: the read after a notification sees that change or a newer one.
		if ok && mzxid < t.txid {
			r.errorf("Z4: %s read mzxid %d after notification txid %d", r.paths[t.key], mzxid, t.txid)
		}
	}
}

// read performs one get_data (with a watch when cb is set), checks it and
// returns the mzxid read and whether it succeeded. A positive due records
// its latency.
func (r *deploymentRun) read(s *session, key int32, cb fkclient.WatchCallback, due sim.Time) (int64, bool) {
	path := r.paths[key]
	floor := s.floor[key]
	if s.busy > 0 {
		s.overlap++
	}
	mark := s.overlap
	s.busy++
	l1, l2, miss := s.c.CacheStats()
	data, stat, err := s.c.GetDataW(path, cb)
	s.busy--
	if err != nil {
		r.opErr("get_data %s: %v", path, err)
		return 0, false
	}
	if stat.Mzxid < floor {
		r.errorf("Z3: %s read mzxid %d after %d in one session", path, stat.Mzxid, floor)
	}
	if stat.Mzxid > s.floor[key] {
		s.floor[key] = stat.Mzxid
	}
	wid, ok := payloadID(data, r.w.payloadB)
	if !ok {
		r.errorf("get_data %s returned a value no write produced", path)
		return 0, false
	}
	r.reads = append(r.reads, readRec{key: key, wid: wid, mzxid: stat.Mzxid})
	if due > 0 {
		lat := ms(r.k.Now() - due)
		class := readUnclassified
		if mark == s.overlap {
			n1, n2, nm := s.c.CacheStats()
			switch {
			case n1-l1 == 1 && n2 == l2 && nm == miss:
				class = readL1
			case n2-l2 == 1 && n1 == l1 && nm == miss:
				class = readL2
			case n1 == l1 && n2 == l2:
				class = readStore
			}
		}
		r.readLat = append(r.readLat, lat)
		r.readClass = append(r.readClass, class)
	}
	return stat.Mzxid, true
}

func ms(d sim.Time) float64 { return float64(d) / 1e6 }

// runPhase prepares, drives and checks one phase.
func (r *deploymentRun) runPhase(s schedule) {
	r.prepare(s)
	r.drive(s)
	r.settle()
}

// prepare resets the per-phase records and allocates them, and the
// phase's write payloads, at full size, so that while the phase runs the
// benchmark itself allocates next to nothing.
func (r *deploymentRun) prepare(s schedule) {
	writes, watchedWrites := 0, 0
	for _, o := range s.ops {
		if o.kind == opWrite {
			writes++
			if int(o.key) < r.w.watched {
				watchedWrites++
			}
		}
	}
	reads := len(s.ops) - writes
	r.attempted, r.answered, r.failed, r.writeFailed = 0, 0, 0, 0
	r.phaseWID0 = int32(len(r.writes))
	r.writes = slices.Grow(r.writes, writes)
	r.writeLat = make([]float64, writes)
	for i := range r.writeLat {
		r.writeLat[i] = -1
	}
	r.readLat = make([]float64, 0, reads)
	r.readClass = make([]uint8, 0, reads)
	// A watched key's write fires at most once and is re-read once.
	r.reads = make([]readRec, 0, reads+watchedWrites)
	r.fires = make([]fire, 0, watchedWrites)
	r.payloads = make([]byte, writes*r.w.payloadB)
	for i := 0; i < writes; i++ {
		fillPayload(r.payloads[i*r.w.payloadB:(i+1)*r.w.payloadB], r.phaseWID0+int32(i))
	}
	r.lateMax = 0
}

// drive runs one prepared schedule open-loop from the current virtual
// time and drains the deployment. Each op is timed from its due time.
func (r *deploymentRun) drive(s schedule) {
	start := r.k.Now()
	k := r.k
	k.Go("generator", func() {
		for _, o := range s.ops {
			o.due += start
			if wait := o.due - k.Now(); wait > 0 {
				k.Sleep(wait)
			}
			if late := k.Now() - o.due; late > r.lateMax {
				r.lateMax = late
			}
			r.attempted++
			if o.kind == opWrite {
				r.writes = append(r.writes, writeRec{key: o.key, due: o.due})
				if int32(len(r.writes)-1) != o.wid {
					r.errorf("schedule write id %d out of sequence", o.wid)
				}
			}
			r.dispatch(task{op: o})
		}
	})
	k.Run()
}

// settle counts the drained phase's failures and checks its outputs.
func (r *deploymentRun) settle() {
	// Ops the drain left unanswered count as failed.
	r.failed += r.attempted - r.answered
	for _, l := range r.writeLat {
		if l < 0 {
			r.writeFailed++
		}
	}
	r.check()
}

// finish records one client op's completion.
func (r *deploymentRun) finish(ok bool) {
	r.answered++
	if !ok {
		r.failed++
	}
	if now := r.k.Now(); now > r.end {
		r.end = now
	}
}

// check validates the phase's outputs against the write table: every value
// read came from a write of that path, and where that write was
// acknowledged, with its mzxid. Watch fires must match an acknowledged
// write of the watched path.
func (r *deploymentRun) check() {
	for _, rd := range r.reads {
		if rd.wid < 0 || int(rd.wid) >= len(r.writes) || r.writes[rd.wid].key != rd.key {
			r.errorf("read of key %d returned write %d of another path", rd.key, rd.wid)
			continue
		}
		if m := r.writes[rd.wid].mzxid; m != 0 && m != rd.mzxid {
			r.errorf("read of write %d reports mzxid %d, its ack said %d", rd.wid, rd.mzxid, m)
		}
	}
	if r.d.Obs.Tracer.Enabled() {
		for _, e := range r.d.Obs.Tracer.Errors() {
			r.errorf("tracer: %s", e)
		}
	}
}

// watchLatencies joins each fire to the write whose mzxid is its txid and
// returns due-to-callback latencies in ms for writes of this phase.
func (r *deploymentRun) watchLatencies() []float64 {
	byMzxid := make(map[int64]int32, len(r.writeLat))
	for wid := r.phaseWID0; wid < int32(len(r.writes)); wid++ {
		if m := r.writes[wid].mzxid; m != 0 {
			byMzxid[m] = wid
		}
	}
	unacked := r.unackedKeys()
	var out []float64
	for _, f := range r.fires {
		wid, ok := byMzxid[f.txid]
		if !ok {
			// A write that failed may still have landed, but it has no
			// mzxid to match.
			if !unacked[f.key] {
				r.errorf("notification txid %d on key %d matches no acknowledged write of the phase", f.txid, f.key)
			}
			continue
		}
		if r.writes[wid].key != f.key {
			r.errorf("notification for key %d carries txid of a write to key %d", f.key, r.writes[wid].key)
		}
		out = append(out, ms(f.at-r.writes[wid].due))
	}
	return out
}

// unackedKeys marks the keys with a write that was never acknowledged.
func (r *deploymentRun) unackedKeys() []bool {
	out := make([]bool, r.w.nodes)
	for _, rec := range r.writes[r.w.nodes:] {
		if rec.mzxid == 0 {
			out[rec.key] = true
		}
	}
	return out
}

// finalCheck reads every node through a fresh session after the drain:
// each must hold the last acknowledged write of its path, or on a path
// with an unacknowledged write, possibly that write.
func (r *deploymentRun) finalCheck() {
	last := make([]int32, r.w.nodes)
	lastM := make([]int64, r.w.nodes)
	for i := range last {
		last[i] = int32(i) // the preload write
	}
	for wid := int32(r.w.nodes); wid < int32(len(r.writes)); wid++ {
		rec := r.writes[wid]
		if rec.mzxid > lastM[rec.key] {
			last[rec.key], lastM[rec.key] = wid, rec.mzxid
		}
	}
	r.k.Go("final-check", func() {
		c, err := fkclient.Connect(r.d, "final-check", r.d.Cfg.Profile.Home)
		if err != nil {
			r.errorf("final-check connect: %v", err)
			return
		}
		for key := 0; key < r.w.nodes; key++ {
			path := r.paths[key]
			data, _, err := c.GetData(path)
			if err != nil {
				r.errorf("final read %s: %v", path, err)
				continue
			}
			wid, ok := payloadID(data, r.w.payloadB)
			switch {
			case !ok:
				r.errorf("final read %s returned a value no write produced", path)
			case wid != last[key] && !r.unacked(wid, int32(key)):
				r.errorf("final read %s returned write %d, last acknowledged was %d", path, wid, last[key])
			}
		}
	})
	r.k.Run()
}

// unacked reports whether wid is a write of key that was never
// acknowledged.
func (r *deploymentRun) unacked(wid, key int32) bool {
	return wid >= int32(r.w.nodes) && int(wid) < len(r.writes) && r.writes[wid].key == key && r.writes[wid].mzxid == 0
}

// close stops the deployment's processes and drops every reference to
// the deployment, leaving the benchmark's own records.
func (r *deploymentRun) close() {
	r.k.Shutdown()
	// Shutdown returns as each killed process hands back control, a moment
	// before its goroutine ends; until then that stack keeps the
	// deployment reachable.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > r.goroutines && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	r.k, r.d = nil, nil
	r.writer, r.reader, r.watch = nil, nil, nil
	r.watchCB, r.idle = nil, nil
}

// counters is a snapshot of the program's own public counters.
type counters struct {
	usd        float64
	counts     map[string]int64
	leaderInv  int64 // leader function invocations
	coldStarts int64
	billedSec  float64
	cache      cacheCounters
	l1, l2, l3 int64 // reader sessions' CacheStats
}

type cacheCounters struct {
	fills, rejected, invalidations, evictions int64
}

var functionNames = []string{core.FnFollower, core.FnLeader, core.FnWatch, core.FnHeartbeat}

func (r *deploymentRun) snapshot() counters {
	m := r.d.Env.Meter
	c := counters{counts: map[string]int64{}}
	cats := m.Categories() // sorted, so the float sum is reproducible
	for _, cat := range cats {
		c.usd += m.Cost(cat)
		c.counts[cat] = m.Count(cat)
	}
	c.leaderInv = r.d.Platform.Function(core.FnLeader).Invocations()
	for _, name := range functionNames {
		f := r.d.Platform.Function(name)
		c.coldStarts += f.ColdStarts()
		c.billedSec += f.BilledSeconds()
	}
	for _, rc := range r.d.Caches {
		st := rc.Stats()
		c.cache.fills += st.Fills
		c.cache.rejected += st.RejectedFills
		c.cache.invalidations += st.Invalidations
		c.cache.evictions += rc.Evictions()
	}
	for _, s := range r.reader {
		l1, l2, l3 := s.c.CacheStats()
		c.l1 += l1
		c.l2 += l2
		c.l3 += l3
	}
	return c
}

// cacheVMUSD is the provisioned cache nodes' price over a virtual span.
func (r *deploymentRun) cacheVMUSD(span sim.Time) float64 {
	return r.d.Cfg.Profile.Pricing.CacheVMHourly * span.Hours() * float64(len(r.d.Caches))
}

// stageHists returns the tracer's span histograms summed over shards and
// regions, keyed by span name.
func stageHists(h *obs.Hub) map[string][]float64 {
	out := map[string][]float64{}
	for _, key := range h.Metrics.HistKeys() {
		if key.Component != "span" {
			continue
		}
		out[key.Name] = append(out[key.Name], h.Metrics.Hist(key).Values()...)
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}
