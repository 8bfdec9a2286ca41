package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

func init() {
	register(Experiment{
		ID:    "cost",
		Title: "Measured $/1M requests per pipeline config vs a provisioned ZooKeeper ensemble",
		Ref:   "Figure 14 + Section 5.3.4 (measured, not analytic)",
		Run:   runCostLive,
	})
}

// costRun is one measured workload's ledger summary.
type costRun struct {
	reqs      int64   // client requests completed (writes + reads; a multi is one request)
	usd       float64 // ledger grand total over the measured window
	sysUSD    float64 // system-bucket share (control plane, untraced reads)
	conserved bool    // AttributedPd == TotalPd: nothing orphaned or double-billed
}

func (r costRun) perReq() float64 {
	if r.reqs == 0 {
		return 0
	}
	return r.usd / float64(r.reqs)
}

func (r costRun) per1M() float64 { return r.perReq() * 1e6 }

// writeMixScenario is the cost and telemetry workload: each session
// writes its own node ops times — in "txn" mode a multi that also writes
// its neighbour's node, on another shard — and with readBack reads it
// back after each write. In "reshard" mode the nodes sit under /hot and
// a live /hot split lands mid-workload. Every request that succeeds
// bumps *reqs (a multi is one request).
func writeMixScenario(cfg core.Config, mode string, sessions, ops int, readBack bool, reqs *int64) scenario {
	paths := uniformPaths(sessions)
	if mode == "reshard" {
		paths = hotPaths(sessions)
	}
	payload := bytes.Repeat([]byte("x"), 128)
	sc := scenario{
		cfg:      cfg,
		sessions: sessionNames("s", sessions),
		setup: func(r *scenarioRun) error {
			if mode == "reshard" {
				if _, err := r.setup.Create("/hot", nil, 0); err != nil {
					return err
				}
			}
			return createAll(r.setup, paths, nil)
		},
		session: func(r *scenarioRun, i int) {
			c := r.clients[i]
			for op := 0; op < ops; op++ {
				var err error
				if mode == "txn" {
					_, err = c.Multi(
						txn.SetData(paths[i], payload, -1),
						txn.SetData(paths[(i+1)%len(paths)], payload, -1))
				} else {
					_, err = c.SetData(paths[i], payload, -1)
				}
				if err == nil {
					*reqs++
				}
				if readBack {
					if _, _, err := c.GetData(paths[i]); err == nil {
						*reqs++
					}
				}
			}
		},
	}
	if mode == "reshard" {
		// Land the split while writers are in flight, so some requests
		// are re-routed mid-pipeline.
		sc.concurrent = func(r *scenarioRun) {
			r.k.Sleep(5 * sim.Ms(1))
			_ = r.d.SplitSubtree("/hot", 2)
		}
	}
	return sc
}

// runCostWorkload runs the write+read mix with cost accounting on and
// returns the attributed dollars. The ledger is reset after setup so the
// numbers cover only the measured requests (and the sessions' closes);
// a mid-run split's control-plane spend shows up in the system bucket.
func runCostWorkload(seed int64, cfg core.Config, mode string, sessions, ops int) costRun {
	cfg.CostAccounting = true
	var reqs int64
	l := runScenario(seed, writeMixScenario(cfg, mode, sessions, ops, true, &reqs)).d.Obs.Cost
	return costRun{
		reqs:      reqs,
		usd:       l.TotalUSD(),
		sysUSD:    obs.PdToUSD(l.SystemPd()),
		conserved: l.AttributedPd() == l.TotalPd(),
	}
}

// costConfigMatrix is the paper's headline comparison set: the
// paper-faithful pipeline plus each cost-bearing extension.
var costConfigMatrix = []struct {
	label string
	cfg   core.Config
	mode  string
}{
	{"plain (paper-faithful)", core.Config{}, "plain"},
	{"batching (2 shards, fold 16)", core.Config{WriteShards: 2, BatchWrites: true, MaxBatch: 16}, "plain"},
	{"caching (two-level)", core.Config{CacheMode: core.CacheTwoLevel}, "plain"},
	{"txn (4 shards, cross-shard)", core.Config{WriteShards: 4}, "txn"},
	{"reshard (live split mid-run)", core.Config{WriteShards: 2, DynamicShards: true}, "reshard"},
}

func runCostLive(cfg RunConfig) *Report {
	r := &Report{
		ID:    "cost",
		Title: "Measured $/1M requests vs provisioned ZooKeeper",
		Ref:   "Figure 14 + Section 5.3.4 (measured, not analytic)",
	}
	sessions := 6
	ops := cfg.reps(5, 20)

	runs := make([]costRun, len(costConfigMatrix))
	s := r.AddSection(
		fmt.Sprintf("Attributed cost per config (%d sessions × %d write+read pairs of 128 B)", sessions, ops),
		[]string{"configuration", "requests", "$/1M req", "system $ share", "conserved"})
	for i, tc := range costConfigMatrix {
		run := runCostWorkload(cfg.Seed+int64(i), tc.cfg, tc.mode, sessions, ops)
		runs[i] = run
		share := 0.0
		if run.usd > 0 {
			share = run.sysUSD / run.usd
		}
		s.AddRow(tc.label, fmt.Sprintf("%d", run.reqs), dollars(run.per1M()),
			fmt.Sprintf("%.0f%%", share*100), check(run.conserved))
	}

	// The headline comparison: pay-as-you-go spend scales with load, the
	// provisioned ensemble costs the same every day.
	z := costmodel.ZooKeeperDeployment{P: cloud.AWSPricing(), Servers: 3, InstanceType: "t3.small", DiskGB: 20}
	zkDaily := z.TotalDailyCost()
	loads := []float64{1e5, 5e5, 1e6, 2e6, 5e6, 1e7}
	cols := []string{"requests/day"}
	for _, tc := range costConfigMatrix {
		cols = append(cols, tc.label)
	}
	cols = append(cols, "ZooKeeper 3x t3.small")
	s2 := r.AddSection("Daily cost vs load ($/day; measured per-request cost x volume)", cols)
	for _, load := range loads {
		row := []string{fmt.Sprintf("%.1fM", load/1e6)}
		for i := range costConfigMatrix {
			row = append(row, dollars(runs[i].perReq()*load))
		}
		row = append(row, dollars(zkDaily))
		s2.AddRow(row...)
	}

	breakEvens := make([]float64, len(runs))
	for i, run := range runs {
		if p := run.perReq(); p > 0 {
			breakEvens[i] = zkDaily / p
		}
	}
	r.Note("Break-even volumes vs the $%.2f/day ensemble: %s.", zkDaily, breakEvenList(breakEvens))
	m := costmodel.NewAWSModel(2048)
	r.Note("Fidelity: the plain config's measured write-heavy $/1M sits beside the analytic Table 4 write cost, $%.2f/1M (the measured mix includes the cheap read half of every pair).",
		1e6*m.WriteCost(128, false))
	r.Note("Every row conserves: the sum of per-request attributed picodollars equals the ledger's charged total exactly — no charge is orphaned or double-billed.")
	return r
}

// breakEvenList renders each config's break-even daily volume.
func breakEvenList(bes []float64) string {
	var b bytes.Buffer
	for i, be := range bes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1fM req/day", costConfigMatrix[i].label, be/1e6)
	}
	return b.String()
}
