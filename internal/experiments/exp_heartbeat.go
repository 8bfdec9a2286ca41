package experiments

import (
	"fmt"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/znode"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Heartbeat function performance and cost",
		Ref:   "Figure 13",
		Run:   runFig13,
	})
}

// heartbeatExec measures the scheduled function's execution time with
// nClients sessions each owning one ephemeral node.
func heartbeatExec(seed int64, nClients, memMB, reps int) float64 {
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, core.Config{
		Profile: cloud.AWSProfile(), UserStore: core.StoreKV,
		HeartbeatMemMB: memMB, Telemetry: true,
	})
	k.Go("bench", func() {
		clients := make([]*fkclient.Client, 0, nClients)
		for i := 0; i < nClients; i++ {
			c, err := fkclient.Connect(d, fmt.Sprintf("s%d", i), cloud.RegionAWSHome)
			if err != nil {
				return
			}
			if _, err := c.Create(fmt.Sprintf("/eph-%d", i), nil, znode.FlagEphemeral); err != nil {
				return
			}
			clients = append(clients, c)
		}
		// Invoke the heartbeat directly, as the scheduler would; the
		// handler's own duration is captured as a phase sample, so the
		// invocation-API overhead does not pollute the measurement.
		for rep := 0; rep < reps+1; rep++ {
			if err := d.Platform.Invoke(cloud.ClientCtx(cloud.RegionAWSHome), core.FnHeartbeat, nil); err != nil {
				return
			}
			k.Sleep(5 * time.Second)
		}
		for _, c := range clients {
			c.Close()
		}
	})
	k.RunFor(4 * time.Hour)
	k.Shutdown()
	p := d.Phase("heartbeat.total")
	if p == nil || p.N() < 2 {
		return 0
	}
	// Drop the cold-start invocation (the first sample).
	warm := stats.NewSample(p.N() - 1)
	for _, v := range p.Values()[1:] {
		warm.Add(v)
	}
	return warm.Percentile(50)
}

func runFig13(cfg RunConfig) *Report {
	r := &Report{ID: "fig13", Title: "Heartbeat performance and daily cost", Ref: "Figure 13"}
	reps := cfg.reps(4, 15)
	clientCounts := []int{1, 4, 8, 16, 32, 64}
	memConfigs := []int{128, 256, 512, 1024, 2048}
	if cfg.Quick {
		clientCounts = []int{1, 16, 64}
		memConfigs = []int{128, 512, 2048}
	}
	cols := []string{"clients"}
	for _, mem := range memConfigs {
		cols = append(cols, fmt.Sprintf("%dMB", mem))
	}
	s1 := r.AddSection("Execution time of the heartbeat function (median ms)", cols)
	s2 := r.AddSection("Cost of heartbeat monitoring over 24h at 1/min (cents)", cols)
	m := costmodel.NewAWSModel(512)
	var exec64at128, exec64at2048 float64
	for _, n := range clientCounts {
		row1 := []string{fmt.Sprintf("%d", n)}
		row2 := []string{fmt.Sprintf("%d", n)}
		for _, mem := range memConfigs {
			med := heartbeatExec(cfg.Seed+int64(n*10000+mem), n, mem, reps)
			row1 = append(row1, f1(med))
			daily := m.HeartbeatDailyCost(med/1000, mem, 1440, n*120)
			row2 = append(row2, fmt.Sprintf("%.3f", daily*100))
			if n == 64 && mem == 128 {
				exec64at128 = med
			}
			if n == 64 && mem == 2048 {
				exec64at2048 = med
			}
		}
		s1.AddRow(row1...)
		s2.AddRow(row2...)
	}
	r.Note("Execution time decreases with the memory allocation (%.0f ms at 128 MB vs %.0f ms at 2048 MB for 64 clients) — larger sandboxes get more I/O bandwidth.",
		exec64at128, exec64at2048)
	r.Note("At one invocation per minute the daily allocation time is <0.2%% of the day; monitoring costs a fraction of a VM (paper: 0.1-0.25 cents/day).")
	return r
}
