package fkclient

// End-to-end coverage for Config.WireCodec: "binary". The codec swaps the
// representation of every hot message (requests, leader/distributor
// messages, transaction payloads, watch invocations, invalidation size
// accounting) — these tests prove the full pipeline semantics survive the
// swap by running the randomized workloads across the feature matrix
// (batching × caching × transactions × resharding) under the binary
// codec and checking the same invariants the gob suites check.

import (
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

func TestBinaryCodecRandomizedMatrix(t *testing.T) {
	matrix := []struct {
		name string
		cfg  core.Config
	}{
		{"plain", core.Config{WireCodec: "binary"}},
		{"sharded", core.Config{WireCodec: "binary", WriteShards: 4}},
		{"batching", core.Config{WireCodec: "binary", BatchWrites: true}},
		{"batching-chunked", core.Config{WireCodec: "binary", BatchWrites: true, MaxBatch: 2}},
		{"caching", core.Config{WireCodec: "binary", CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV}},
		{"hybrid-store", core.Config{WireCodec: "binary", UserStore: core.StoreHybrid}},
		{"sharded-batching-caching", core.Config{
			WireCodec: "binary", WriteShards: 4, BatchWrites: true,
			CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV,
		}},
	}
	for _, mc := range matrix {
		for _, seed := range []int64{404, 808} {
			mc, seed := mc, seed
			t.Run(fmt.Sprintf("%s/seed%d", mc.name, seed), func(t *testing.T) {
				obs, d := randomHistory(t, seed, mc.cfg, 4, 12)
				if mc.cfg.WriteShards <= 1 {
					// Z2's global txid check does not apply across
					// shards (the sharding suite's standing caveat).
					verifyZ2(t, obs)
				}
				verifyTreeIntegrity(t, d)
			})
		}
	}
}

// TestBinaryCodecReshardMatrix runs the reshard-under-load workload (with
// transactions in the mix) under the binary codec: live split/merge/grow
// transitions while randomized clients churn, Z3 monotonicity during the
// run, tree integrity after.
func TestBinaryCodecReshardMatrix(t *testing.T) {
	matrix := []struct {
		name  string
		cfg   core.Config
		multi bool // the clients also issue cross-path multi()s
	}{
		{"reshard", core.Config{WireCodec: "binary", WriteShards: 2, DynamicShards: true}, false},
		{"reshard-batching", core.Config{WireCodec: "binary", WriteShards: 2, DynamicShards: true, BatchWrites: true}, false},
		{"reshard-txn", core.Config{WireCodec: "binary", WriteShards: 2, DynamicShards: true}, true},
		{"reshard-caching", core.Config{WireCodec: "binary", WriteShards: 2, DynamicShards: true, CacheMode: core.CacheTwoLevel}, false},
	}
	for _, mc := range matrix {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			d := randomReshardHistory(t, 909, mc.cfg, mc.multi, 4, 10)
			verifyTreeIntegrity(t, d)
		})
	}
}

// TestBinaryCodecTxnHistories runs the multi() randomized workload under
// the binary codec: cross-shard transactions ride txnMsg blobs inside
// leader messages, the representation-compose case the codec must get
// right.
func TestBinaryCodecTxnHistories(t *testing.T) {
	_, d := randomHistory(t, 1212, core.Config{WireCodec: "binary", WriteShards: 2}, 4, 12)
	verifyTreeIntegrity(t, d)
	obs, d1 := randomHistory(t, 1313, core.Config{WireCodec: "binary"}, 4, 12)
	verifyZ2(t, obs)
	verifyTreeIntegrity(t, d1)
}

// TestWireCodecConfigRejected pins the config validation: an unknown
// codec must fail fast at deployment time, not decode garbage later.
func TestWireCodecConfigRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown WireCodec accepted")
		}
	}()
	core.NewDeployment(sim.NewKernel(1), core.Config{WireCodec: "protobuf"})
}
