package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "batching",
		Title: "Batching distributor: folded user-store writes, leader time, and cost",
		Ref:   "beyond the paper (ROADMAP: distributor batching)",
		Run:   runBatching,
	})
}

// batchingPayloadB is the node size of the batching workloads.
const batchingPayloadB = 128

// hotNodes is how many nodes the hot workload's sessions pile onto: a
// tiny set keeps batches folding deeply while spreading the follower-side
// node-lock contention that would otherwise dominate the cost column.
const hotNodes = 2

// batchingRun is one (configuration, workload) measurement.
type batchingRun struct {
	writes      int
	elapsedSec  float64
	lat         *stats.Sample
	storeWrites int64   // user-store write calls (obj.write ops)
	leaderUpd   float64 // total ms spent in the leader's distribution phase
	cost        float64 // dollars across the measured phase
	viol        int     // per-session ordering violations observed
	ok          bool
}

func (r batchingRun) throughput() float64 {
	if r.elapsedSec <= 0 {
		return 0
	}
	return float64(r.writes) / r.elapsedSec
}

// batchingWorkload names the three traffic shapes: independent nodes
// (nothing to fold), one shared hot node (set→set folding), and
// create/delete churn under one shared parent (parent-RMW coalescing).
type batchingWorkload string

const (
	wlUniform batchingWorkload = "uniform"
	wlHotNode batchingWorkload = "hotnode"
	wlChurn   batchingWorkload = "churn"
)

// runBatchingWorkload drives sessions concurrent clients for ops
// operations each and measures client latency, aggregate throughput,
// user-store write calls, leader distribution time, and the per-session
// ordering invariants (each response's own mzxid/version strictly
// increasing — a folded write handing out the batch's final stat would
// trip them).
func runBatchingWorkload(seed int64, cfg core.Config, wl batchingWorkload, sessions, ops int) batchingRun {
	cfg.Telemetry = true
	res := batchingRun{writes: sessions * ops, lat: stats.NewSample(sessions * ops)}
	paths := make([]string, sessions)
	payload := bytes.Repeat([]byte("x"), batchingPayloadB)
	viol := make([]int, sessions)
	run := runScenario(seed, scenario{
		cfg:      cfg,
		sessions: sessionNames("s", sessions),
		setup: func(r *scenarioRun) error {
			switch wl {
			case wlUniform:
				copy(paths, uniformPaths(sessions))
				return createAll(r.setup, paths, nil)
			case wlHotNode:
				hot := []string{"/hot"}
				for n := 0; n < hotNodes; n++ {
					hot = append(hot, fmt.Sprintf("/hot/n%d", n))
				}
				for i := range paths {
					paths[i] = hot[1+i%hotNodes]
				}
				return createAll(r.setup, hot, nil)
			default: // wlChurn
				_, err := r.setup.Create("/app", nil, 0)
				return err
			}
		},
		session: func(r *scenarioRun, i int) {
			c := r.clients[i]
			var lastMzxid int64
			var lastVersion int32 = -1
			for op := 0; op < ops; op++ {
				ts := r.k.Now()
				switch wl {
				case wlChurn:
					p := fmt.Sprintf("/app/c%d_%d", i, op)
					if _, err := c.Create(p, payload, 0); err != nil {
						viol[i]++
						continue
					}
					if err := c.Delete(p, -1); err != nil {
						viol[i]++
					}
				default:
					st, err := c.SetData(paths[i], payload, -1)
					if err != nil {
						viol[i]++
						continue
					}
					// Each op must carry its own stamps: strictly newer
					// than this session's previous write to the node.
					if st.Mzxid <= lastMzxid || st.Version <= lastVersion {
						viol[i]++
					}
					lastMzxid, lastVersion = st.Mzxid, st.Version
				}
				res.lat.AddDur(r.k.Now() - ts)
			}
		},
		collect: func(r *scenarioRun) {
			res.cost = r.d.Env.Meter.Total()
			res.storeWrites = r.d.Env.Meter.Count("obj.write")
			if s := r.d.Phase("leader.update"); s != nil {
				res.leaderUpd = s.Mean() * float64(s.N())
			}
		},
	})
	for _, v := range viol {
		res.viol += v
	}
	res.elapsedSec = run.elapsed().Seconds()
	res.ok = res.lat.N() == res.writes
	return res
}

func runBatching(cfg RunConfig) *Report {
	r := &Report{
		ID:    "batching",
		Title: "Batching distributor: folded user-store writes, leader time, and cost",
		Ref:   "beyond the paper (ROADMAP: distributor batching)",
	}
	sessions := 12
	ops := cfg.reps(8, 30)
	if !cfg.Quick {
		sessions = 16
	}

	type variant struct {
		label string
		cc    core.Config
	}
	workloads := []struct {
		wl       batchingWorkload
		caption  string
		variants []variant
	}{
		{wlUniform,
			fmt.Sprintf("Uniform workload (one node per session; %d sessions × %d set_data of %d B)", sessions, ops, batchingPayloadB),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
				{"batched + 4 shards", core.Config{BatchWrites: true, WriteShards: 4}},
			}},
		{wlHotNode,
			fmt.Sprintf("Hot-node workload (%d sessions piled onto %d nodes; %d set_data each)", sessions, hotNodes, ops),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
			}},
		{wlChurn,
			fmt.Sprintf("Hot-parent churn (create+delete under one parent; %d sessions × %d pairs)", sessions, ops),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
			}},
	}

	m := costmodel.NewAWSModel(2048)
	var hotOff, hotOn batchingRun
	for wi, w := range workloads {
		s := r.AddSection(w.caption,
			[]string{"configuration", "writes/s", "speedup", "store wr/op", "leader upd ms/op", "p50 ms", "p99 ms", "$/1M writes", "viol"})
		var base float64
		for vi, v := range w.variants {
			run := runBatchingWorkload(cfg.Seed+int64(wi*10+vi), v.cc, w.wl, sessions, ops)
			if !run.ok {
				s.AddRow(v.label, "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			tput := run.throughput()
			if vi == 0 {
				base = tput
			}
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", tput/base)
			}
			if w.wl == wlHotNode {
				if vi == 0 {
					hotOff = run
				} else {
					hotOn = run
				}
			}
			p50, p99 := latCells(run.lat, f1)
			s.AddRow(v.label,
				f1(tput), speedup,
				f2(float64(run.storeWrites)/float64(run.writes)),
				f2(run.leaderUpd/float64(run.writes)),
				p50, p99,
				dollars(run.cost/float64(run.writes)*1e6),
				fmt.Sprintf("%d", run.viol))
		}
	}

	if hotOff.ok && hotOn.ok && hotOn.storeWrites > 0 {
		r.Note("Hot node: the distributor folds %d queued writes into %d user-store writes (%.1fx fewer calls) at zero ordering violations — every response still carries its own txid and version.",
			hotOff.storeWrites, hotOn.storeWrites,
			float64(hotOff.storeWrites)/float64(hotOn.storeWrites))
	}
	r.Note("Uniform traffic has nothing to fold (distinct nodes per batch), so batching only trims the per-batch overheads; the wins concentrate on hot nodes (set→set folding) and shared parents (one child-list RMW per batch instead of one per create/delete).")
	r.Note("Cost model: at a full batch of 10 folded to one store write, the analytic cost drops from %s to %s per 1M writes (%.0f%% saved); batching still saves 10%% of the per-write dollars at any fold ratio below %.1f.",
		dollars(m.WriteCost(1024, false)*1e6), dollars(m.BatchedWriteCost(10, 1, 1024, false)*1e6),
		m.BatchWriteSavings(10, 1, 1024, false)*100,
		m.BatchFoldBreakEven(10, 1024, false, 0.10))
	return r
}
