package ycsb

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/zk"
)

func TestWorkloadMixesSumToOne(t *testing.T) {
	for _, w := range CoreWorkloads() {
		sum := w.ReadProp + w.UpdateProp + w.InsertProp + w.ScanProp + w.RMWProp
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("workload %s mix sums to %v", w.Name, sum)
		}
	}
}

func TestWorkloadNextRespectsMix(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w := Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05}
	reads := 0
	n := 10000
	for i := 0; i < n; i++ {
		if w.Next(r) == OpRead {
			reads++
		}
	}
	frac := float64(reads) / float64(n)
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("read fraction = %v, want ~0.95", frac)
	}
}

func TestZipfianSkewAndRange(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	z := NewZipfian(1000)
	counts := map[int64]int{}
	n := 20000
	for i := 0; i < n; i++ {
		k := z.Next(r)
		if k < 0 || k >= 1000 {
			t.Fatalf("key out of range: %d", k)
		}
		counts[k]++
	}
	// The hottest key should take a large share (theta=0.99 zipf).
	if counts[0] < n/20 {
		t.Errorf("hot key only %d/%d draws", counts[0], n)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct keys drawn", len(counts))
	}
}

// TestZipfianDrawsPinned pins the first 10 000 draws of a fixed-seed
// Zipfian(4096) by digest, so an optimisation of Next that changes even one
// floating-point rounding shows up here.
func TestZipfianDrawsPinned(t *testing.T) {
	const want = uint64(0x961053689a9efbe3)
	r := rand.New(rand.NewSource(42))
	z := NewZipfian(4096)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(z.Next(r)))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("draw digest = %#x, want %#x", got, want)
	}
}

func TestZipfianBoundsProperty(t *testing.T) {
	f := func(seed int64, nRecords uint16) bool {
		n := int64(nRecords)%5000 + 2
		z := NewZipfian(n)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			k := z.Next(r)
			if k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyChooserLatestBias(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	kc := NewKeyChooser(1000, true, r)
	recent := 0
	n := 5000
	for i := 0; i < n; i++ {
		if kc.Next() >= 900 {
			recent++
		}
	}
	if float64(recent)/float64(n) < 0.5 {
		t.Errorf("latest chooser not biased to recent keys: %d/%d", recent, n)
	}
	first := kc.Insert()
	second := kc.Insert()
	if second != first+1 {
		t.Errorf("insert keys: %d %d", first, second)
	}
}

func TestHBaseClusterBarelyUsesZooKeeper(t *testing.T) {
	// The heart of Figure 5: a full YCSB phase drives thousands of ops
	// through HBase while ZooKeeper sees only the cluster-state traffic.
	k := sim.NewKernel(4)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	ens := zk.NewEnsemble(env, zk.Config{Servers: 3})
	var hbaseOps, zkWrites, zkReads int64
	k.Go("bench", func() {
		h, err := NewHBaseCluster(env, ens, 3)
		if err != nil {
			t.Errorf("cluster: %v", err)
			return
		}
		startW, startR := ens.WriteCount(), ens.ReadCount()
		h.RunPhase(CoreWorkloads()[0], 30*time.Second, 8, 1000)
		hbaseOps = h.Ops()
		zkWrites = ens.WriteCount() - startW
		zkReads = ens.ReadCount() - startR
		h.Close()
	})
	k.RunFor(10 * time.Minute)
	k.Shutdown()
	if hbaseOps < 10000 {
		t.Fatalf("hbase ops = %d, want thousands", hbaseOps)
	}
	total := zkWrites + zkReads
	if total > hbaseOps/100 {
		t.Fatalf("zookeeper saw %d requests for %d hbase ops — not idle", total, hbaseOps)
	}
	if zkWrites != 0 {
		t.Fatalf("workload phase should not write to zookeeper, got %d", zkWrites)
	}
}

func TestHBaseSetupCreatesClusterState(t *testing.T) {
	k := sim.NewKernel(5)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	ens := zk.NewEnsemble(env, zk.Config{Servers: 3})
	var kids []string
	k.Go("bench", func() {
		h, err := NewHBaseCluster(env, ens, 4)
		if err != nil {
			t.Errorf("cluster: %v", err)
			return
		}
		c, _ := zk.Connect(ens, 0)
		kids, _ = c.GetChildren("/hbase/rs")
		c.Close()
		h.Close()
	})
	k.RunFor(10 * time.Minute)
	k.Shutdown()
	if len(kids) != 4 {
		t.Fatalf("region servers registered = %v", kids)
	}
}
