package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/ycsb"
)

// workload is one traffic mix run against one deployment configuration.
// Why each exists is recorded in README.md.
type workload struct {
	name     string
	config   func() core.Config
	nodes    int     // znodes preloaded, spread over subtrees
	subtrees int     // top-level subtrees ("/s0".."/sN")
	payloadB int     // bytes per written value
	readFrac float64 // share of scheduled ops that are get_data
	zipf     bool    // Zipf(0.99) keys, else uniform
	rate     float64 // nominal arrival rate, ops per virtual second
	ops      int     // scheduled ops in the measured phase
	warmOps  int     // scheduled ops in the unmeasured warm-up phase
	// repS is about the host seconds one measured rep, set-up included,
	// takes on a 2-vCPU machine. It turns --seconds into a rep count.
	repS float64

	writers, readers, watchers int // sessions per role
	watched                    int // nodes 0..watched-1 carry a re-arming watch

	// ladderBase is the lowest offered rate max_rate_ops_s is read from
	// (see ladder); ladderOps is the scheduled op count of one ladder
	// step, sized so that a step has more than 1010 writes (enough for a
	// p99) by five standard deviations.
	ladderBase float64
	ladderOps  int
	limitMs    float64 // write p99 latency limit

	// writeFold is the measure-what-you-name assertion on the user-store
	// fold ratio: "one" requires exactly 1 store write per client write,
	// "below-one" requires fewer.
	writeFold string
	// minHitRatio, when positive, is the L1+L2 cache hit ratio the run
	// must reach.
	minHitRatio float64
}

var workloads = []*workload{
	{
		name: "paper-rw",
		// The zero Config is the paper's deployment: object user store,
		// gob codec, one write shard, per-message leader, no cache.
		config:   func() core.Config { return core.Config{} },
		nodes:    256,
		subtrees: 8,
		payloadB: 128,
		readFrac: 0.5,
		rate:     15,
		ops:      64000,
		warmOps:  60,
		repS:     7.5,
		writers:  16, readers: 16, watchers: 4,
		// A watch on one node in eight keeps the watch path measured
		// without moving the write path off the paper's load point.
		watched:    32,
		ladderBase: 20,
		ladderOps:  7800,
		limitMs:    1000,
		writeFold:  "one",
	},
	{
		name: "zipf-read-cached",
		config: func() core.Config {
			return core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel, WireCodec: "binary"}
		},
		nodes:    4096,
		subtrees: 8,
		payloadB: 256,
		readFrac: 0.98,
		zipf:     true,
		rate:     500,
		ops:      240000,
		warmOps:  6000,
		repS:     7.5,
		writers:  8, readers: 32, watchers: 4, watched: 4096,
		ladderBase:  600,
		ladderOps:   60000,
		limitMs:     1000,
		minHitRatio: 0.5,
	},
	{
		name: "hot-sharded-batched",
		config: func() core.Config {
			return core.Config{UserStore: core.StoreKV, WireCodec: "binary", WriteShards: 4, BatchWrites: true, CacheMode: core.CacheRegional}
		},
		nodes:    16,
		subtrees: 8,
		payloadB: 128,
		readFrac: 0.5,
		zipf:     true,
		rate:     120,
		ops:      16000,
		warmOps:  200,
		repS:     3.5,
		writers:  32, readers: 16, watchers: 4, watched: 16,
		ladderBase: 80,
		ladderOps:  20800,
		limitMs:    1000,
		writeFold:  "below-one",
	},
}

// The rate ladder has ladderSteps steps, each ladderRatio times the one
// below, from the workload's ladderBase.
const (
	ladderSteps = 16
	ladderRatio = 1.12
)

// ladder returns the workload's offered rates, rounded to 0.1 ops/s.
func (w *workload) ladder() []float64 {
	out := make([]float64, ladderSteps)
	for i := range out {
		out[i] = math.Round(w.ladderBase*math.Pow(ladderRatio, float64(i))*10) / 10
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// nodePath names key k: keys are dealt round-robin over the subtrees so
// hot keys land in different subtrees (and, sharded, different shards).
func (w *workload) nodePath(k int) string {
	return fmt.Sprintf("/s%d/n%d", k%w.subtrees, k)
}

const (
	opWrite uint8 = iota
	opRead
	opRearm // a watcher's read after a notification; never scheduled
	opNone  // does nothing; measures the cost of dispatch
)

// op is one scheduled client operation. Every write carries a write id
// that its payload encodes, so any value read can be traced to the write
// that produced it.
type op struct {
	due     sim.Time // offset from the phase start
	kind    uint8
	key     int32
	session int32 // index among the writers or the readers
	wid     int32 // write id (writes only)
}

// schedule is a phase's whole op list, made before the phase runs.
type schedule struct {
	ops []op
}

// makeSchedule draws n ops arriving as a Poisson process at rate ops per
// virtual second. Write ids start at firstWID. The draw depends only on
// its arguments.
func (w *workload) makeSchedule(seed int64, rate float64, n int, firstWID int32) schedule {
	r := rand.New(rand.NewSource(seed))
	var zipf *ycsb.Zipfian
	if w.zipf {
		zipf = ycsb.NewZipfian(int64(w.nodes))
	}
	ops := make([]op, n)
	var t float64 // seconds
	wid := firstWID
	for i := range ops {
		t += r.ExpFloat64() / rate
		o := op{due: sim.Time(t * 1e9)}
		if r.Float64() < w.readFrac {
			o.kind = opRead
			o.session = int32(r.Intn(w.readers))
		} else {
			o.kind = opWrite
			o.session = int32(r.Intn(w.writers))
			o.wid = wid
			wid++
		}
		if zipf != nil {
			o.key = int32(zipf.Next(r))
		} else {
			o.key = int32(r.Intn(w.nodes))
		}
		ops[i] = o
	}
	return schedule{ops: ops}
}

// bytes is the schedule's canonical encoding. Its digest is printed with
// the results, so two runs with one seed can be compared.
func (s schedule) bytes() []byte {
	b := make([]byte, 0, len(s.ops)*21)
	for _, o := range s.ops {
		b = binary.LittleEndian.AppendUint64(b, uint64(o.due))
		b = append(b, o.kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(o.key))
		b = binary.LittleEndian.AppendUint32(b, uint32(o.session))
		b = binary.LittleEndian.AppendUint32(b, uint32(o.wid))
	}
	return b
}

func (s schedule) writes() int {
	n := 0
	for _, o := range s.ops {
		if o.kind == opWrite {
			n++
		}
	}
	return n
}

// payload is write wid's value: the id, then filler derived from it, so a
// read can be checked byte for byte against the write it claims to be.
func payload(wid int32, size int) []byte {
	b := make([]byte, size)
	fillPayload(b, wid)
	return b
}

func fillPayload(b []byte, wid int32) {
	binary.LittleEndian.PutUint32(b, uint32(wid))
	x := uint32(wid)*2654435761 + 1
	for i := 4; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
}

// payloadID returns the write id a value claims, or false when the value
// is not byte-identical to that write's payload. It checks in place.
func payloadID(data []byte, size int) (int32, bool) {
	if len(data) != size || size < 4 {
		return 0, false
	}
	wid := binary.LittleEndian.Uint32(data)
	x := wid*2654435761 + 1
	for i := 4; i < size; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if data[i] != byte(x) {
			return 0, false
		}
	}
	return int32(wid), true
}
