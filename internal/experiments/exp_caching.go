package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "caching",
		Title: "Read-path cache tier: hit ratio, latency, and cost",
		Ref:   "beyond the paper (ROADMAP: caching)",
		Run:   runCaching,
	})
}

// cachingPayloadB is the node size of the caching workload.
const cachingPayloadB = 256

// cachingRun is one configuration's measurement.
type cachingRun struct {
	reads   int
	lat     *stats.Sample
	l1Hits  int64
	l2Hits  int64
	misses  int64
	z3Viol  int
	elapsed float64 // seconds of the read phase
	ok      bool
}

// hitRatio is the client-observed share of reads served by either cache
// level (0 with the tier off).
func (r cachingRun) hitRatio() float64 {
	total := r.l1Hits + r.l2Hits + r.misses
	if total == 0 {
		return 0
	}
	return float64(r.l1Hits+r.l2Hits) / float64(total)
}

// runCachingWorkload drives the Zipf(0.99) read-heavy workload: `readers`
// sessions issue zipf-chosen get_data calls against a flat node set while
// one writer session keeps overwriting zipf-chosen nodes, so the leader's
// push invalidations and the cache's fill/floor races actually exercise.
// Each reader checks Z3 inline: a node's observed mzxid must never regress
// within the session.
func runCachingWorkload(seed int64, cfg core.Config, readers, readsPer, nodeCount int) cachingRun {
	res := cachingRun{reads: readers * readsPer, lat: stats.NewSample(readers * readsPer)}
	paths := make([]string, nodeCount)
	for i := range paths {
		paths[i] = fmt.Sprintf("/app/n%d", i)
	}
	payload := bytes.Repeat([]byte("x"), cachingPayloadB)
	viol := make([]int, readers)
	run := runScenario(seed, scenario{
		cfg:      cfg,
		sessions: sessionNames("r", readers),
		extra:    []string{"writer"},
		setup: func(r *scenarioRun) error {
			if _, err := r.setup.Create("/app", nil, 0); err != nil {
				return err
			}
			return createAll(r.setup, paths, payload)
		},
		concurrent: func(r *scenarioRun) {
			writer := r.clients[readers]
			z := ycsb.NewZipfian(int64(nodeCount))
			rng := rand.New(rand.NewSource(seed*7717 + 13))
			for !r.sessionsDone {
				if _, err := writer.SetData(paths[z.Next(rng)], payload, -1); err != nil {
					return
				}
				r.k.Sleep(10 * sim.Ms(1))
			}
		},
		session: func(r *scenarioRun, i int) {
			z := ycsb.NewZipfian(int64(nodeCount))
			rng := rand.New(rand.NewSource(seed + int64(i)*919))
			lastRead := map[string]int64{}
			for op := 0; op < readsPer; op++ {
				p := paths[z.Next(rng)]
				ts := r.k.Now()
				_, st, err := r.clients[i].GetData(p)
				if err != nil {
					continue
				}
				res.lat.AddDur(r.k.Now() - ts)
				if st.Mzxid < lastRead[p] {
					viol[i]++
				}
				lastRead[p] = st.Mzxid
				r.k.Sleep(sim.Time(rng.Intn(4)) * sim.Ms(1))
			}
		},
		collect: func(r *scenarioRun) {
			for _, c := range r.clients[:readers] {
				h1, h2, mi := c.CacheStats()
				res.l1Hits += h1
				res.l2Hits += h2
				res.misses += mi
			}
		},
	})
	for _, v := range viol {
		res.z3Viol += v
	}
	res.elapsed = run.elapsed().Seconds()
	res.ok = res.lat.N() == res.reads
	return res
}

// cachingDollarsPer1M prices one million reads of this configuration:
// per-operation storage charges at the measured hit ratio plus the
// provisioned cache VM amortized over the time those reads take at the
// measured throughput.
func cachingDollarsPer1M(m costmodel.Model, run cachingRun, perOpFree bool, vmNodes int) float64 {
	perOp := m.CachedReadCost(run.hitRatio(), cachingPayloadB, true)
	if perOpFree {
		perOp = 0
	}
	cost := perOp * 1e6
	if vmNodes > 0 && run.elapsed > 0 {
		tput := float64(run.reads) / run.elapsed
		cost += m.CacheNodeDailyCost(vmNodes) * (1e6 / (tput * 86400))
	}
	return cost
}

func runCaching(cfg RunConfig) *Report {
	r := &Report{
		ID:    "caching",
		Title: "Read-path cache tier: hit ratio, latency, and cost",
		Ref:   "beyond the paper (ROADMAP: caching)",
	}
	readers := 6
	readsPer := cfg.reps(25, 120)
	nodes := 32

	type variant struct {
		label     string
		cc        core.Config
		perOpFree bool // no per-operation storage charges (mem-backed)
		vmNodes   int  // provisioned VMs to amortize
	}
	variants := []variant{
		{"FK DynamoDB (no cache)", core.Config{UserStore: core.StoreKV}, false, 0},
		{"FK DynamoDB + regional cache", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional}, false, 1},
		{"FK DynamoDB + two-level cache", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel}, false, 1},
		{"FK Redis user store (paper ablation)", core.Config{UserStore: core.StoreMem}, true, 1},
	}

	s := r.AddSection(
		fmt.Sprintf("AWS, Zipf(0.99) read-heavy: %d readers × %d reads of %d B over %d nodes, concurrent writer",
			readers, readsPer, cachingPayloadB, nodes),
		[]string{"configuration", "hit %", "mean ms", "p50 ms", "p99 ms", "$/1M reads", "Z3 viol"})
	m := costmodel.NewAWSModel(2048)
	var baseMean, cachedMean float64
	var cachedHit float64
	for i, v := range variants {
		run := runCachingWorkload(cfg.Seed+int64(i)*31, v.cc, readers, readsPer, nodes)
		if !run.ok {
			s.AddRow(v.label, "-", "-", "-", "-", "-", "-")
			continue
		}
		mean := run.lat.Mean()
		switch i {
		case 0:
			baseMean = mean
		case 2:
			cachedMean = mean
			cachedHit = run.hitRatio()
		}
		p50, p99 := latCells(run.lat, f2)
		s.AddRow(v.label,
			f1(run.hitRatio()*100),
			f2(mean), p50, p99,
			dollars(cachingDollarsPer1M(m, run, v.perOpFree, v.vmNodes)),
			fmt.Sprintf("%d", run.z3Viol))
	}

	// Capacity sensitivity: a regional node too small for the working set
	// must keep evicting and lose its hit ratio, not break consistency.
	s2 := r.AddSection("Two-level cache vs regional capacity (same workload)",
		[]string{"regional capacity", "hit %", "mean ms", "Z3 viol"})
	for i, capB := range []int{4 << 10, 64 << 20} {
		cc := core.Config{
			UserStore:      core.StoreKV,
			CacheMode:      core.CacheTwoLevel,
			CacheCapacityB: capB,
			// Starve the client level too, so the regional capacity is
			// what the row actually measures.
			ClientCacheCapacityB: 2 << 10,
		}
		run := runCachingWorkload(cfg.Seed+int64(100+i), cc, readers, readsPer, nodes)
		if !run.ok {
			s2.AddRow(sizeLabel(capB), "-", "-", "-")
			continue
		}
		s2.AddRow(sizeLabel(capB), f1(run.hitRatio()*100), f2(run.lat.Mean()),
			fmt.Sprintf("%d", run.z3Viol))
	}

	if baseMean > 0 && cachedMean > 0 {
		r.Note("Two-level cache: %.2f ms mean reads vs %.2f ms direct DynamoDB (%.1fx) at %.0f%% hits — the regional node turns most reads into the mem-store round trip of the paper's Redis ablation without giving up pay-as-you-go storage.",
			cachedMean, baseMean, baseMean/cachedMean, cachedHit*100)
	}
	r.Note("Entries are served only when they pass the session guards (per-path last-seen floor, shard MRD, Z4 epoch stamps), so the Z3 violation column must stay zero; the leader push-invalidates the regional node on every user-store write and per-path mzxid floors reject stale fills that race an overwrite.")
	r.Note("Break-even: at %.0f%% hits on 256 B hybrid reads one cache node pays for itself above %.1fM reads/day.",
		90.0, m.CacheBreakEvenReads(0.9, cachingPayloadB, true, 1)/1e6)
	return r
}
