package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/core"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "sharding",
		Title: "Write scaling with a sharded leader pipeline",
		Ref:   "beyond the paper (ROADMAP: sharding)",
		Run:   runSharding,
	})
}

// shardCounts is the sweep of the write-scaling experiment.
var shardCounts = []int{1, 2, 4, 8}

// shardingRun is one (shard count, workload) measurement.
type shardingRun struct {
	writes     int
	elapsedSec float64
	lat        *stats.Sample
	cost       float64 // dollars across the measured phase
	ok         bool
}

func (r shardingRun) throughput() float64 {
	if r.elapsedSec <= 0 {
		return 0
	}
	return float64(r.writes) / r.elapsedSec
}

// uniformPaths picks one top-level subtree per session such that the
// subtrees spread evenly over 8 shards (and therefore also over 2 and 4,
// since the shard is hash mod n). This is the balanced multi-tenant
// workload sharding is designed for: many independent subtrees.
func uniformPaths(sessions int) []string {
	paths := make([]string, 0, sessions)
	next := 0
	for i := 0; i < sessions; i++ {
		want := i % 8
		for {
			p := fmt.Sprintf("/t%d", next)
			next++
			if core.ShardOf(p, 8) == want {
				paths = append(paths, p)
				break
			}
		}
	}
	return paths
}

// hotPaths puts every session inside one subtree, so every write lands on
// the same shard regardless of the shard count.
func hotPaths(sessions int) []string {
	paths := make([]string, sessions)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hot/n%d", i)
	}
	return paths
}

// runShardingWorkload drives sessions concurrent clients, each issuing ops
// sequential set_data calls against its own node, and measures the
// client-observed latency distribution plus aggregate throughput in
// virtual time.
func runShardingWorkload(seed int64, shards, sessions, ops int, hot bool) shardingRun {
	res := shardingRun{writes: sessions * ops, lat: stats.NewSample(sessions * ops)}
	paths := uniformPaths(sessions)
	if hot {
		paths = hotPaths(sessions)
	}
	payload := bytes.Repeat([]byte("x"), 128)
	run := runScenario(seed, scenario{
		cfg:      core.Config{WriteShards: shards},
		sessions: sessionNames("s", sessions),
		setup: func(r *scenarioRun) error {
			if hot {
				if _, err := r.setup.Create("/hot", nil, 0); err != nil {
					return err
				}
			}
			if err := createAll(r.setup, paths, nil); err != nil {
				return err
			}
			// Warm the follower and leader sandboxes before measuring.
			for i := 0; i < 3; i++ {
				if _, err := r.setup.SetData(paths[0], []byte("warm"), -1); err != nil {
					return err
				}
			}
			return nil
		},
		session: func(r *scenarioRun, i int) {
			for op := 0; op < ops; op++ {
				ts := r.k.Now()
				if _, err := r.clients[i].SetData(paths[i], payload, -1); err != nil {
					return
				}
				res.lat.AddDur(r.k.Now() - ts)
			}
		},
		collect: func(r *scenarioRun) { res.cost = r.d.Env.Meter.Total() },
	})
	res.elapsedSec = run.elapsed().Seconds()
	res.ok = res.lat.N() == res.writes
	return res
}

func runSharding(cfg RunConfig) *Report {
	r := &Report{
		ID:    "sharding",
		Title: "Sharded leader pipeline: write throughput vs shard count",
		Ref:   "beyond the paper (ROADMAP: sharding)",
	}
	sessions := 16
	ops := cfg.reps(8, 25)
	if !cfg.Quick {
		sessions = 24
	}
	for _, hot := range []bool{false, true} {
		label := "Uniform workload"
		note := "one subtree per session, spread over shards"
		if hot {
			label = "Hot-subtree workload"
			note = "every session inside /hot: all writes on one shard"
		}
		s := r.AddSection(
			fmt.Sprintf("%s (%s; %d sessions × %d writes of 128 B)", label, note, sessions, ops),
			[]string{"shards", "writes/s", "speedup", "p50 ms", "p99 ms", "$/1k writes"})
		var base float64
		for _, n := range shardCounts {
			run := runShardingWorkload(cfg.Seed+int64(n)+boolSeed(hot), n, sessions, ops, hot)
			if !run.ok {
				s.AddRow(fmt.Sprintf("%d", n), "-", "-", "-", "-", "-")
				continue
			}
			tput := run.throughput()
			if n == 1 {
				base = tput
			}
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", tput/base)
			}
			p50, p99 := latCells(run.lat, f1)
			s.AddRow(fmt.Sprintf("%d", n),
				f1(tput), speedup, p50, p99,
				dollars(run.cost/float64(run.writes)*1000))
		}
	}
	r.Note("Routing hashes the top-level path segment, so a parent and its children always share a shard; the per-shard FIFO order preserves every node-local ZooKeeper invariant.")
	r.Note("The uniform workload scales with the shard count (the single ordered queue and its serialized leader are the bottleneck, Section 5.2.2); the hot subtree pins all writes to one shard and gains nothing — partitioning only helps workloads that spread across subtrees.")
	return r
}
