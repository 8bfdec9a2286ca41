package faaskeeper

// One benchmark per table and figure of the paper's evaluation: each runs
// the corresponding experiment end to end inside the simulator (quick
// repetition counts) and reports wall-clock cost plus, where meaningful,
// the key simulated metric as a custom unit. Run a single one with e.g.
//
//	go test -bench BenchmarkFig9WriteLatency -benchmem
//
// and regenerate the full paper-style tables with cmd/fkrepro.
import (
	"fmt"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/core"
	"faaskeeper/internal/experiments"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/watchfanout"
	"faaskeeper/internal/znode"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(experiments.RunConfig{Seed: int64(i + 1), Quick: true})
		if len(rep.Sections) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Table 1 and Table 4 (static/analytic).
func BenchmarkTab1FeatureMatrix(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTab4CostModel(b *testing.B)     { benchExperiment(b, "tab4") }

// Figure 4: storage cost and latency.
func BenchmarkFig4aStorageCost(b *testing.B)    { benchExperiment(b, "fig4a") }
func BenchmarkFig4bStorageLatency(b *testing.B) { benchExperiment(b, "fig4b") }

// Figure 5: ZooKeeper utilization under HBase/YCSB.
func BenchmarkFig5ZKUtilization(b *testing.B) { benchExperiment(b, "fig5") }

// Table 6a / Figure 6b: synchronization primitives.
func BenchmarkTab6aSyncPrimitives(b *testing.B) { benchExperiment(b, "tab6a") }
func BenchmarkFig6bLockThroughput(b *testing.B) { benchExperiment(b, "fig6b") }

// Figure 7: serverless queues.
func BenchmarkFig7aQueueLatency(b *testing.B)    { benchExperiment(b, "fig7a") }
func BenchmarkFig7bQueueThroughput(b *testing.B) { benchExperiment(b, "fig7b") }
func BenchmarkFig7cQueueLatencyGCP(b *testing.B) { benchExperiment(b, "fig7c") }

// Figures 8-12 / Table 3: FaaSKeeper vs ZooKeeper data paths.
func BenchmarkFig8ReadLatency(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9WriteLatency(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10TimeDistribution(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkTab3Variability(b *testing.B)       { benchExperiment(b, "tab3") }
func BenchmarkFig11HybridWrites(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12GCPWrites(b *testing.B)        { benchExperiment(b, "fig12") }

// Figure 13: heartbeat monitoring.
func BenchmarkFig13Heartbeat(b *testing.B) { benchExperiment(b, "fig13") }

// Figure 14: the cost-ratio grids.
func BenchmarkFig14CostRatio(b *testing.B) { benchExperiment(b, "fig14") }

// Section 5.3.2 resource-configuration ablations.
func BenchmarkSec532xResourceConfig(b *testing.B) { benchExperiment(b, "sec532x") }

// Section 6 requirement ablations (R1/R4, R6, R8).
func BenchmarkAblationsRequirements(b *testing.B) { benchExperiment(b, "ablations") }

// Sharded leader pipeline write scaling (beyond the paper).
func BenchmarkShardingWriteScaling(b *testing.B) { benchExperiment(b, "sharding") }

// Read-path cache tier (beyond the paper).
func BenchmarkCachingReadTier(b *testing.B) { benchExperiment(b, "caching") }

// Batching distributor (beyond the paper).
func BenchmarkBatchingDistributor(b *testing.B) { benchExperiment(b, "batching") }

// Cross-shard multi() transactions (beyond the paper).
func BenchmarkTxnCoordinator(b *testing.B) { benchExperiment(b, "txn") }

// Live resharding (beyond the paper; ROADMAP: shard auto-scaling).
func BenchmarkReshardDynamicMap(b *testing.B) { benchExperiment(b, "reshard") }

// --- micro-benchmarks of the implementation itself (real time) ---

// BenchmarkSimKernelEvents measures raw simulator event throughput. Its one
// process wakes itself, so every event takes the kernel's self-wake path and
// no goroutine switch; BenchmarkSimKernelHandoff measures the switch.
func BenchmarkSimKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	k.Go("ticker", func() {
		for {
			k.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	k.RunFor(time.Duration(b.N) * time.Millisecond)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkSimKernelHandoff measures one process-to-process handoff: two
// processes ping-pong a token through a pair of queues, so every event
// resumes the other process. One op is one handoff.
func BenchmarkSimKernelHandoff(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	ping, pong := sim.NewQueue[int](k), sim.NewQueue[int](k)
	k.Go("ping", func() {
		for i := 0; i < b.N; i += 2 {
			ping.Push(i)
			pong.Pop()
		}
		ping.Close()
	})
	k.Go("pong", func() {
		for {
			v, ok := ping.Pop()
			if !ok {
				return
			}
			pong.Push(v)
		}
	})
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkZNodeCodec measures the node serialization hot path.
func BenchmarkZNodeCodec(b *testing.B) {
	n := &znode.Node{
		Path:     "/services/api/config",
		Data:     make([]byte, 1024),
		Stat:     znode.Stat{Czxid: 10, Mzxid: 99, Version: 3},
		Children: []string{"a", "b", "c", "d"},
	}
	epoch := []int64{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := znode.Marshal(n, epoch)
		if _, _, err := znode.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVConditionalUpdate measures the system store's core operation.
func BenchmarkKVConditionalUpdate(b *testing.B) {
	k := sim.NewKernel(1)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "bench")
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	b.ReportAllocs()
	b.ResetTimer()
	k.Go("bench", func() {
		for i := 0; i < b.N; i++ {
			_, err := tbl.Update(ctx, "n",
				[]kv.Update{kv.Set{Name: "lock", V: kv.N(int64(i))}},
				kv.Or{kv.AttrNotExists{Name: "nope"}})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkFKWritePath measures full simulated set_data round trips per
// wall-clock second (client -> queue -> follower -> leader -> store ->
// notification), reporting the virtual-vs-real time ratio.
func BenchmarkFKWritePath(b *testing.B) {
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{})
	b.ReportAllocs()
	var virtual time.Duration
	k.Go("bench", func() {
		c, err := fkclient.Connect(d, "bench", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Create("/bench", nil, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		payload := make([]byte, 1024)
		for i := 0; i < b.N; i++ {
			if _, err := c.SetData("/bench", payload, -1); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		virtual = k.Now()
	})
	k.Run()
	k.Shutdown()
	b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
}

// BenchmarkFKShardedWritePath measures the sharded write pipeline: eight
// concurrent sessions spread over four leader shards, reporting simulated
// seconds per write so the speedup over BenchmarkFKWritePath's single
// totally-ordered queue is directly visible. The gob/binary sub-benchmarks
// compare the wire codecs on identical pipelines: vsec/op barely moves
// (codec CPU is free in virtual time and the size delta is small next to
// the 1KB payload), wall-clock ns/op and allocs/op are where the binary
// codec pays off.
func BenchmarkFKShardedWritePath(b *testing.B) {
	for _, codec := range []string{"gob", "binary"} {
		b.Run(codec, func(b *testing.B) { benchFKShardedWrite(b, codec) })
	}
}

func benchFKShardedWrite(b *testing.B, codec string) {
	const sessions = 8
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{WriteShards: 4, WireCodec: codec})
	b.ReportAllocs()
	var virtual time.Duration
	k.Go("bench", func() {
		clients := make([]*fkclient.Client, sessions)
		paths := make([]string, sessions)
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		for i := range clients {
			paths[i] = fmt.Sprintf("/bench%d", i)
			if _, err := setup.Create(paths[i], nil, 0); err != nil {
				b.Fatal(err)
			}
			c, err := fkclient.Connect(d, fmt.Sprintf("bench-%d", i), d.Cfg.Profile.Home)
			if err != nil {
				b.Fatal(err)
			}
			clients[i] = c
		}
		b.ResetTimer()
		payload := make([]byte, 1024)
		wg := sim.NewWaitGroup(k)
		start := k.Now()
		for i := range clients {
			i := i
			wg.Add(1)
			k.Go(fmt.Sprintf("bench-writer-%d", i), func() {
				defer wg.Done()
				for op := i; op < b.N; op += sessions {
					if _, err := clients[i].SetData(paths[i], payload, -1); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
		b.StopTimer()
		virtual = k.Now() - start
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
}

// BenchmarkFKReshard measures the dynamic write pipeline through a live
// hot-subtree split: eight sessions hammer their own nodes under /hot on
// a two-queue dynamic deployment while the subtree is split over four
// fresh queues mid-run. vsec/op covers the whole run (pre-split
// contention, the transition, post-split spread), so compare against
// BenchmarkFKShardedWritePath's statically balanced ideal; reshard/op
// reports the amortized transitions.
func BenchmarkFKReshard(b *testing.B) {
	const sessions = 8
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{WriteShards: 2, DynamicShards: true})
	b.ReportAllocs()
	var virtual time.Duration
	k.Go("bench", func() {
		clients := make([]*fkclient.Client, sessions)
		paths := make([]string, sessions)
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := setup.Create("/hot", nil, 0); err != nil {
			b.Fatal(err)
		}
		for i := range clients {
			paths[i] = fmt.Sprintf("/hot/n%d", i)
			if _, err := setup.Create(paths[i], nil, 0); err != nil {
				b.Fatal(err)
			}
			c, err := fkclient.Connect(d, fmt.Sprintf("bench-%d", i), d.Cfg.Profile.Home)
			if err != nil {
				b.Fatal(err)
			}
			clients[i] = c
		}
		b.ResetTimer()
		payload := make([]byte, 1024)
		wg := sim.NewWaitGroup(k)
		start := k.Now()
		for i := range clients {
			i := i
			wg.Add(1)
			k.Go(fmt.Sprintf("bench-writer-%d", i), func() {
				defer wg.Done()
				for op := i; op < b.N; op += sessions {
					if _, err := clients[i].SetData(paths[i], payload, -1); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		wg.Add(1)
		k.Go("bench-resharder", func() {
			defer wg.Done()
			k.Sleep(300 * time.Millisecond)
			if err := d.SplitSubtree("/hot", 4); err != nil {
				b.Error(err)
			}
		})
		wg.Wait()
		b.StopTimer()
		virtual = k.Now() - start
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
	b.ReportMetric(1/float64(b.N), "reshard/op")
}

// BenchmarkFKBatchedWritePath measures the batching distributor on a hot
// node: eight concurrent sessions hammer one path with BatchWrites on, so
// the leader folds each queue batch into one user-store write. Compare
// vsec/op with BenchmarkFKWritePath (per-message distribution) and
// fold/op (user-store writes per set_data) with its implicit 1.0.
func BenchmarkFKBatchedWritePath(b *testing.B) {
	const sessions = 8
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{BatchWrites: true})
	b.ReportAllocs()
	var virtual time.Duration
	k.Go("bench", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := setup.Create("/bench", nil, 0); err != nil {
			b.Fatal(err)
		}
		clients := make([]*fkclient.Client, sessions)
		for i := range clients {
			c, err := fkclient.Connect(d, fmt.Sprintf("bench-%d", i), d.Cfg.Profile.Home)
			if err != nil {
				b.Fatal(err)
			}
			clients[i] = c
		}
		d.ResetMetrics()
		b.ResetTimer()
		payload := make([]byte, 1024)
		wg := sim.NewWaitGroup(k)
		start := k.Now()
		for i := range clients {
			i := i
			wg.Add(1)
			k.Go(fmt.Sprintf("bench-writer-%d", i), func() {
				defer wg.Done()
				for op := i; op < b.N; op += sessions {
					if _, err := clients[i].SetData("/bench", payload, -1); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
		b.StopTimer()
		virtual = k.Now() - start
		b.ReportMetric(float64(d.Env.Meter.Count("obj.write"))/float64(b.N), "fold/op")
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
}

// BenchmarkFKMultiTxn measures full multi() round trips at 1, 2, and 4
// participant shards on a 4-shard transactional deployment: the 1-shard
// sub-benchmark is the fast path through the leader commit phase, the
// others pay the two-phase commit across leader pipelines. vsec/op makes
// the coordination cost directly comparable across the sub-benchmarks
// (and with BenchmarkFKWritePath's single set_data).
func BenchmarkFKMultiTxn(b *testing.B) {
	for _, spread := range []int{1, 2, 4} {
		spread := spread
		b.Run(fmt.Sprintf("shards%d", spread), func(b *testing.B) {
			k := sim.NewKernel(1)
			d := core.NewDeployment(k, core.Config{
				WriteShards: 4, UserStore: core.StoreKV,
			})
			b.ReportAllocs()
			var virtual time.Duration
			k.Go("bench", func() {
				c, err := fkclient.Connect(d, "bench", d.Cfg.Profile.Home)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				// One path per shard residue, so a multi over paths[:spread]
				// spans exactly spread shards.
				paths := make([]string, 0, spread)
				next := 0
				for len(paths) < spread {
					p := fmt.Sprintf("/b%d", next)
					next++
					if core.ShardOf(p, 4) == len(paths) {
						paths = append(paths, p)
					}
				}
				for _, p := range paths {
					if _, err := c.Create(p, nil, 0); err != nil {
						b.Fatal(err)
					}
				}
				payload := make([]byte, 1024)
				b.ResetTimer()
				start := k.Now()
				for i := 0; i < b.N; i++ {
					ops := make([]MultiOp, 0, spread)
					for _, p := range paths {
						ops = append(ops, SetDataOp(p, payload, int32(i)))
					}
					if _, err := c.Multi(ops...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				virtual = k.Now() - start
			})
			k.Run()
			k.Shutdown()
			b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
		})
	}
}

// BenchmarkFKCachedReadPath measures simulated get_data round trips
// through the two-level cache tier (compare with BenchmarkFKReadPath's
// direct store access): after the first miss fills the caches, every
// iteration is a client-cache hit until the TTL forces a refresh. The
// gob/binary sub-benchmarks isolate the allocation overhaul on the hit
// path: under binary the client memoizes the decoded node per (path,
// mzxid), so a hit skips the znode.Unmarshal that dominates the gob
// variant's ns/op and allocs/op; vsec/op is identical (no wire activity
// on a cache hit).
func BenchmarkFKCachedReadPath(b *testing.B) {
	for _, codec := range []string{"gob", "binary"} {
		b.Run(codec, func(b *testing.B) { benchFKCachedRead(b, codec) })
	}
}

func benchFKCachedRead(b *testing.B, codec string) {
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{
		UserStore: core.StoreKV,
		CacheMode: core.CacheTwoLevel,
		WireCodec: codec,
	})
	b.ReportAllocs()
	var virtual time.Duration
	k.Go("bench", func() {
		c, err := fkclient.Connect(d, "bench", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Create("/bench", make([]byte, 1024), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		start := k.Now()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.GetData("/bench"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		virtual = k.Now() - start
		l1, l2, misses := c.CacheStats()
		if total := l1 + l2 + misses; total > 0 {
			b.ReportMetric(float64(l1+l2)/float64(total), "hit-ratio")
		}
	})
	k.Run()
	b.StopTimer()
	k.Shutdown()
	b.ReportMetric(virtual.Seconds()/float64(b.N), "vsec/op")
}

// BenchmarkFKReadPath measures simulated get_data round trips.
func BenchmarkFKReadPath(b *testing.B) {
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{UserStore: core.StoreHybrid})
	b.ReportAllocs()
	k.Go("bench", func() {
		c, err := fkclient.Connect(d, "bench", d.Cfg.Profile.Home)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Create("/bench", make([]byte, 1024), 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.GetData("/bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
	k.Run()
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkFKCost measures the attributed dollar cost of the
// paper-faithful pipeline over a fixed 128 B write+read workload and
// reports it as usd-per-1m/op. Virtual time and pricing are fully
// deterministic, so the benchjson gate on BENCH_cost.json fails on >15%
// drift in either direction — a cost-model change has to update the
// committed baseline deliberately.
func BenchmarkFKCost(b *testing.B) {
	b.ReportAllocs()
	var per1m float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		d := core.NewDeployment(k, core.Config{CostAccounting: true})
		var reqs int64
		k.Go("bench", func() {
			c, err := fkclient.Connect(d, "bench", d.Cfg.Profile.Home)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Create("/bench", nil, 0); err != nil {
				b.Fatal(err)
			}
			d.ResetMetrics()
			payload := make([]byte, 128)
			for j := 0; j < 50; j++ {
				if _, err := c.SetData("/bench", payload, -1); err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.GetData("/bench"); err != nil {
					b.Fatal(err)
				}
				reqs += 2
			}
			per1m = d.Obs.Cost.TotalUSD() / float64(reqs) * 1e6
		})
		k.Run()
		k.Shutdown()
	}
	b.ReportMetric(per1m, "usd-per-1m/op")
}

// BenchmarkFKWatchFanout measures the hierarchical watch fan-out tier on
// a hot path with 10k persistent watchers (one real session plus
// synthetic registrations at the regional fan-out node): 50 writes of
// 128 B per iteration, reporting the attributed dollar cost per 1M
// watched writes and the node-side deliveries each write fans out to.
// Virtual time and pricing are fully deterministic, so the benchjson
// gate on BENCH_fanout.json fails on >15% drift of usd-per-1m/op in
// either direction — the leader-side O(1) publish cost cannot silently
// regress back to per-watcher enumeration.
func BenchmarkFKWatchFanout(b *testing.B) {
	const watchers = 10_000
	b.ReportAllocs()
	var per1m, deliveries float64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		d := core.NewDeployment(k, core.Config{
			CostAccounting: true,
			UserStore:      core.StoreKV,
			WatchFanout:    true,
		})
		home := d.Cfg.Profile.Home
		var writes int64
		k.Go("bench", func() {
			c, err := fkclient.Connect(d, "bench", home)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Create("/hot", nil, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := c.AddWatch("/hot", fkclient.WatchOptions{}, func(core.Notification) {}); err != nil {
				b.Fatal(err)
			}
			node := d.FanoutFor(home)
			node.BulkRegister("/hot", watchfanout.KindPersistent, watchfanout.PolicyImmediate, 0,
				core.WatchID("/hot", core.WatchPersistent), watchers-1)
			d.ResetMetrics()
			payload := make([]byte, 128)
			for j := 0; j < 50; j++ {
				if _, err := c.SetData("/hot", payload, -1); err != nil {
					b.Fatal(err)
				}
				writes++
			}
			k.Sleep(time.Second) // drain debounce slots and delivery workers
			per1m = d.Obs.Cost.TotalUSD() / float64(writes) * 1e6
			deliveries = float64(node.Stats().Deliveries) / float64(writes)
		})
		k.Run()
		k.Shutdown()
	}
	b.ReportMetric(per1m, "usd-per-1m/op")
	b.ReportMetric(deliveries, "deliveries/op")
}
