package core

import (
	"fmt"
	"slices"
	"time"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/watchfanout"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// CacheMode selects the read-path cache tier in front of the user store.
type CacheMode string

// Cache tiers. With CacheOff (the default) the read path is byte-for-byte
// the paper's direct store access.
const (
	CacheOff      CacheMode = ""          // no cache: reads hit the user store directly
	CacheRegional CacheMode = "regional"  // shared per-region cache node only
	CacheTwoLevel CacheMode = "two-level" // per-session client cache + regional node
)

// Function names deployed by FaaSKeeper (Section 3: four functions).
const (
	FnFollower  = "follower"
	FnLeader    = "leader"
	FnWatch     = "watch"
	FnHeartbeat = "heartbeat"
)

// Config selects the deployment's provider profile, storage backends, and
// function resources.
type Config struct {
	Profile   *cloud.Profile // default: cloud.AWSProfile()
	UserStore StoreKind      // default: StoreObject (the paper's base AWS setup)

	// ExtraRegions adds user-store replicas the leader updates in parallel.
	ExtraRegions []cloud.Region

	FollowerMemMB  int // default 2048
	LeaderMemMB    int // default 2048
	HeartbeatMemMB int // default 512
	Arch           faas.Arch
	VCPU           float64

	HeartbeatEvery   time.Duration // 0 disables the scheduled function
	HeartbeatTimeout time.Duration // client reply deadline (default 1.5 s)
	Retries          int           // event-function retry budget (default 2)

	// MaxNodeB caps node data (default 250 kB, the paper's AWS limit from
	// SQS message sizing; Section 4.4).
	MaxNodeB int

	// WriteShards partitions the leader pipeline by znode subtree: N
	// ordered queues, each with one serialized leader instance and its own
	// epoch counters. Default 1 — the paper's single totally-ordered
	// write path. See ShardOf for the routing function.
	WriteShards int

	// DynamicShards replaces the fixed mod-N route with the durable
	// epoch-versioned routing table of package shardmap, enabling live
	// resharding: GrowShards/ShrinkShards move consistent-hash slots to
	// added or retired queues, SplitSubtree re-routes a hot subtree at
	// depth 2, and MergeSubtree folds it back — all without stopping the
	// pipeline (reshard.go). Dynamic mode stamps each write's commit with
	// the routed shard's map generation, so a write racing a reshard is
	// rejected by its own conditional commit and retried against the new
	// map. Default false: the static pipeline, byte-identical to the
	// golden trace.
	DynamicShards bool

	// AutoShard is the shard auto-scaling policy (implies DynamicShards
	// when enabled): a monitor samples per-shard queue depth and splits a
	// sustained hot subtree (or grows the shard count) under load, and
	// merges an idle split back.
	AutoShard AutoShard

	// BatchWrites sets the leader's flush size (distributor.go) to the
	// whole invocation batch. Every message runs through the same
	// pipeline: a per-message commit phase, then a flush that writes only
	// the final folded state of each touched node to the user stores,
	// performs one parent child-list read-modify-write per parent, and
	// completes each operation in queue order — each client still
	// receives its own Stat with its own txid, watch payloads carry the
	// firing operation's txid, and epoch entries precede readability of
	// the flush's writes (Z4). Default false: a flush of one message,
	// the paper's Algorithm 2 operation for operation (golden trace).
	BatchWrites bool

	// MaxBatch caps how many queued messages one flush may fold (0 = the
	// whole invocation batch, itself bounded by the queue technology's
	// receive limit). Only meaningful with BatchWrites.
	MaxBatch int

	// CacheMode enables the read-path cache tier (package cache): a
	// shared regional cache node fronting each region's user store,
	// optionally combined with a per-session client cache. The leader
	// push-invalidates the regional node on every user-store write, and
	// clients apply the direct path's Z3/Z4 guards before serving a
	// cached entry. Default CacheOff — the paper's direct read path.
	CacheMode CacheMode

	// CacheCapacityB sizes each regional cache node (default 64 MB).
	CacheCapacityB int

	// ClientCacheCapacityB sizes each session's client cache in
	// CacheTwoLevel mode (default 256 kB).
	ClientCacheCapacityB int

	// CacheTTL bounds client-cache staleness: entries older than this
	// are refetched, preserving ZooKeeper's timeliness guarantee even
	// for sessions that never observe newer state (default 5 s). The
	// regional node needs no TTL — it is push-invalidated by the leader.
	CacheTTL time.Duration

	// CacheWarmK prefetches the regional cache node's K hottest entries
	// into a new session's client cache on connect (two-level mode only),
	// seeding the session's per-path floors so the first read of a hot
	// path is already a hit. Default 0 — cold connects, as in the paper.
	CacheWarmK int

	// WatchFanout enables the hierarchical watch fan-out tier (package
	// watchfanout): instead of enumerating watching sessions inside the
	// write hot path, the leader publishes ONE notification record per
	// (path, txid) to each region's fan-out node — colocated with the
	// regional cache — and the node owns the per-session delivery with
	// per-watch debounce/coalesce policies, plus ZooKeeper 3.6-style
	// persistent and recursive watches (Deployment.AddWatch). Watch
	// registration and matching move off the system store entirely, so
	// the leader's per-write watch work is O(1) in watcher count. The
	// epoch-stamp read gate (Z4) is preserved: a watch id enters the
	// shard epoch list when its first firing is published and leaves when
	// its last in-flight firing is delivered or coalesced into a newer
	// one. Default false — the paper's per-watcher delivery path,
	// byte-identical to the golden trace.
	WatchFanout bool

	// FanoutDebounce is the latest-wins coalescing window applied by
	// fan-out nodes to PolicyCoalesce registrations (default 10ms). Only
	// meaningful with WatchFanout.
	FanoutDebounce time.Duration

	// WireCodec selects the serialization of the hot message types
	// (session-queue requests, leader messages, transaction payloads,
	// watch invocations, the shard map): "gob" (default) is the
	// paper-faithful encoding whose message sizes the golden trace is
	// pinned to; "binary" is the hand-rolled zero-copy codec of package
	// wire — same semantics, compact varint framing, pooled encode
	// buffers, reflection-free decoding.
	WireCodec string

	// Telemetry enables the virtual-time telemetry subsystem (package
	// obs): causal per-request span trees across the whole pipeline and
	// hot-path counters/histograms in the metrics registry, including the
	// per-phase function timings of Figures 9-13 and Table 3 (component
	// "phase", read back with Deployment.Phase). Trace ids are
	// derived from fields the wire already carries, so gob messages — and
	// therefore the golden virtual-time trace — stay byte-identical, and
	// with Telemetry off every instrumentation point is a zero-allocation
	// no-op. Default false. (Registry gauges, the AutoShard monitor's
	// control-plane signals, function regardless of this flag.)
	Telemetry bool

	// CostAccounting enables per-request dollar attribution (package obs
	// cost ledger): every pay-as-you-go charge a request causes — function
	// GB-s, store read/write units, queue deliveries, cache hits, watch
	// pushes, 2PC legs — is billed to its trace at the instant the charge
	// occurs, and mirrored into the registry's cost gauges. Works with or
	// without Telemetry (spans only carry per-stage costs when both are
	// on). Default false: every attribution point is a nil-sink no-op and
	// the golden virtual-time trace is byte-identical.
	CostAccounting bool

	// CostBudgetUSDPerHour arms the ledger's burn-rate monitor: spend is
	// evaluated over tumbling 1 s windows of virtual time and a window
	// exceeding this hourly rate emits a breach gauge and an instant
	// "cost.breach" span. 0 disarms (the default). Requires
	// CostAccounting.
	CostBudgetUSDPerHour float64

	// codec is WireCodec parsed by defaults(); zero value = gob.
	codec wire.Codec
}

// AutoShard configures shard auto-scaling (Config.AutoShard): the policy
// samples each shard queue's depth every Interval; a shard whose depth
// stays at or above SplitDepth for Sustain consecutive samples is
// resharded — by splitting its dominant subtree over SplitWays new queues
// when one top-level segment carries at least half of the shard's routed
// writes, or by growing the queue count otherwise — and a split whose
// target queues sit empty for MergeIdle consecutive samples is merged
// back.
type AutoShard struct {
	Enabled bool

	Interval   time.Duration // sampling period (default 1 s)
	SplitDepth int           // queue-depth threshold (default 6)
	Sustain    int           // consecutive hot samples before acting (default 3)
	SplitWays  int           // subtree split fanout (default 2)
	MaxShards  int           // queue-count ceiling (default 8)
	MergeIdle  int           // idle samples before merging a split; 0 = never

	// CostAware replaces the raw depth thresholds with an economic
	// objective: each sample accrues queue-delay cost
	// (depth × Interval × DelayUSDPerItemSec) into a per-shard pool, a
	// split is taken only once the hot shard's accumulated delay cost has
	// paid for the estimated costmodel.ReshardCost of performing it, and
	// an idle split is merged back only once the delay cost it absorbed
	// since splitting covers both reshard operations — so a split that
	// never earned its keep is kept (merging would spend reshard dollars
	// to save nothing, and a re-split would spend them again).
	CostAware bool

	// DelayUSDPerItemSec prices one queued item-second of delay (the
	// SLO-violation cost the policy weighs against reshard spend;
	// default $1e-6 per item-second).
	DelayUSDPerItemSec float64
}

func (a *AutoShard) defaults() {
	if a.Interval <= 0 {
		a.Interval = time.Second
	}
	if a.SplitDepth <= 0 {
		a.SplitDepth = 6
	}
	if a.Sustain <= 0 {
		a.Sustain = 3
	}
	if a.SplitWays < 2 {
		a.SplitWays = 2
	}
	if a.MaxShards <= 0 {
		a.MaxShards = 8
	}
	if a.MaxShards > shardmap.MaxShards {
		a.MaxShards = shardmap.MaxShards
	}
	if a.DelayUSDPerItemSec <= 0 {
		a.DelayUSDPerItemSec = 1e-6
	}
}

// Fixed deployment parameters that no configuration varies.
const (
	// hybridThresholdB is StoreHybrid's KV/object split point.
	hybridThresholdB = 4096
	// watchMemMB sizes the watch function.
	watchMemMB = 512
	// lockLease is the timed-lock lease of the system store.
	lockLease = 2 * time.Second
)

func (c *Config) defaults() {
	if c.Profile == nil {
		c.Profile = cloud.AWSProfile()
	}
	if c.UserStore == "" {
		c.UserStore = StoreObject
	}
	if c.FollowerMemMB <= 0 {
		c.FollowerMemMB = 2048
	}
	if c.LeaderMemMB <= 0 {
		c.LeaderMemMB = 2048
	}
	if c.HeartbeatMemMB <= 0 {
		c.HeartbeatMemMB = 512
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 1500 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.MaxNodeB <= 0 {
		c.MaxNodeB = 250 * 1024
	}
	if c.WriteShards <= 0 {
		c.WriteShards = 1
	}
	if c.AutoShard.Enabled {
		c.DynamicShards = true
		c.AutoShard.defaults()
	}
	if c.DynamicShards && c.WriteShards > shardmap.MaxShards {
		panic("core: DynamicShards supports at most 64 write shards")
	}
	if c.CacheWarmK < 0 {
		c.CacheWarmK = 0
	}
	if c.MaxBatch < 0 {
		c.MaxBatch = 0
	}
	switch c.CacheMode {
	case "off":
		c.CacheMode = CacheOff
	case CacheOff, CacheRegional, CacheTwoLevel:
	default:
		// A typo must not silently deploy the wrong tier (an unknown
		// string would otherwise enable the regional cache).
		panic("core: unknown CacheMode " + string(c.CacheMode))
	}
	if c.CostBudgetUSDPerHour > 0 && !c.CostAccounting {
		// The ledger is off without CostAccounting, so the budget would
		// silently never be evaluated.
		panic("core: CostBudgetUSDPerHour requires CostAccounting")
	}
	// CacheCapacityB's 64 MB default is owned by cache.NewRegional (<= 0
	// passes through).
	if c.ClientCacheCapacityB <= 0 {
		c.ClientCacheCapacityB = 256 << 10
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 5 * time.Second
	}
	if c.FanoutDebounce <= 0 {
		c.FanoutDebounce = 10 * time.Millisecond
	}
	codec, err := wire.Parse(c.WireCodec)
	if err != nil {
		// A typo must not silently deploy the slow path as if it were
		// the requested fast one (or vice versa).
		panic("core: " + err.Error())
	}
	c.codec = codec
}

// Deployment is one running FaaSKeeper instance: storage, queues,
// functions, and the registry of connected sessions.
type Deployment struct {
	K        *sim.Kernel
	Env      *cloud.Env
	Platform *faas.Platform
	Cfg      Config

	System *kv.Table
	Locks  *fksync.LockManager
	Stores []UserStore // [0] is the home-region primary

	// Txns manages the durable transaction records of multi()
	// coordinators (package txn). Always non-nil; untouched — and
	// therefore costless — until a multi() is issued.
	Txns *txn.Store

	// Obs is the telemetry hub: the request tracer and the component
	// metrics registry. Always non-nil; the tracer and the registry's
	// hot-path instruments record only when Cfg.Telemetry is set, while
	// gauges (the AutoShard monitor's queue-depth signals) always work.
	Obs *obs.Hub

	// Caches holds one regional cache node per user store (aligned with
	// Stores); empty when CacheMode is CacheOff.
	Caches []*cache.Regional

	// Fanouts holds one watch fan-out node per user store (aligned with
	// Stores); empty unless Cfg.WatchFanout.
	Fanouts []*watchfanout.Node

	// LeaderQs holds one ordered queue per write shard; LeaderQs[s] feeds
	// shard s's serialized leader instance. A single-shard deployment has
	// exactly the paper's one global queue. A dynamic deployment appends
	// queues at runtime as the shard map grows.
	LeaderQs []*queue.Queue

	// dyn is the dynamic-sharding state (nil on static deployments; see
	// dynShards in shard.go).
	dyn *dynShards

	sessions map[string]*SessionTransport

	// lastSeq is the warm-sandbox deduplication cache: each session's
	// queue has exactly one concurrent follower instance, so remembering
	// the last processed sequence number in sandbox state suffices to make
	// queue-retry redelivery idempotent.
	lastSeq map[string]int64
}

// SessionTransport is the cloud-side plumbing of one client session: its
// request queue and the duplex connection used for responses,
// notifications, and heartbeats.
type SessionTransport struct {
	ID        string
	Region    cloud.Region
	Queue     *queue.Queue
	ClientEnd *network.End // client side: receive responses / notifications
	cloudEnd  *network.End
	pongs     *sim.Queue[Pong]
	closed    bool
}

// NewDeployment builds a FaaSKeeper deployment on kernel k. It deploys the
// four functions, wires the leader queue trigger, schedules the heartbeat,
// and seeds the tree root.
func NewDeployment(k *sim.Kernel, cfg Config) *Deployment {
	cfg.defaults()
	env := cloud.NewEnv(k, cfg.Profile)
	d := &Deployment{
		K:        k,
		Env:      env,
		Platform: faas.NewPlatform(env),
		Cfg:      cfg,
		System:   kv.NewTable(env, "system"),
		sessions: map[string]*SessionTransport{},
		lastSeq:  map[string]int64{},
	}
	d.Obs = obs.NewHub(k, cfg.Telemetry, cfg.CostAccounting)
	if cfg.CostBudgetUSDPerHour > 0 {
		d.Obs.Cost.SetBudget(obs.Budget{USDPerHour: cfg.CostBudgetUSDPerHour})
	}
	d.System.SetCostCategory("syskv")
	d.Locks = fksync.NewLockManager(env, d.System, lockLease)
	d.Txns = txn.NewStore(d.System, k)
	d.Txns.SetWireCodec(cfg.codec)
	d.Txns.SetMetrics(d.Obs.Metrics)

	regions := append([]cloud.Region{cfg.Profile.Home}, cfg.ExtraRegions...)
	for _, r := range regions {
		d.Stores = append(d.Stores, d.newUserStore(r))
		if cfg.CacheMode != CacheOff {
			rc := cache.NewRegional(env, r, cfg.CacheCapacityB)
			rc.SetWireCodec(cfg.codec)
			if cfg.CostAccounting {
				// Amortize the cache VM's hourly price over the regional
				// hits it serves (only when accounting: accrual adds
				// meter charges the seed experiments don't expect).
				rc.EnableVMAccrual()
			}
			d.Caches = append(d.Caches, rc)
		}
		if cfg.WatchFanout {
			region := r
			fn := watchfanout.New(env, region,
				func(session string, wid int64, ev watchfanout.Event, path string, txid int64) {
					n := Notification{WatchID: wid, Event: EventType(ev), Path: path, Txid: txid}
					d.notify(session, n, n.wireSize())
				},
				func(shard int, wid int64) {
					// The watch's last in-flight firing is done: retire it
					// from this region's shard epoch list so the read gate
					// stops holding for it.
					_, _ = d.System.Update(d.BillSystemCtx(cloud.ClientCtx(region)),
						epochKey(region, shard),
						[]kv.Update{kv.ListRemove{Name: attrEpochList, Vals: []int64{wid}}}, nil)
				},
				sim.Time(cfg.FanoutDebounce))
			if cfg.CostAccounting {
				fn.EnableVMAccrual()
				fn.SetBillCtx(d.BillSystemCtx(cloud.ClientCtx(region)))
			}
			d.Fanouts = append(d.Fanouts, fn)
		}
	}

	for s := 0; s < cfg.WriteShards; s++ {
		d.LeaderQs = append(d.LeaderQs,
			queue.New(env, leaderQueueName(s, cfg.WriteShards), cfg.Profile.OrderedQueueKind()))
	}

	if cfg.DynamicShards {
		d.dyn = &dynShards{store: shardmap.NewStore(d.System), hot: map[string]int64{}}
		d.dyn.store.SetWireCodec(cfg.codec)
		seedMap := shardmap.New(cfg.WriteShards)
		d.dyn.store.Seed(seedMap)
		d.dyn.cur = seedMap
		d.Txns.TrackLive(true)
	}

	d.Platform.Deploy(faas.Config{
		Name: FnFollower, MemoryMB: cfg.FollowerMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
		Retries: cfg.Retries,
	}, d.followerHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnLeader, MemoryMB: cfg.LeaderMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
		Retries: cfg.Retries,
	}, d.leaderHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnWatch, MemoryMB: watchMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
	}, d.watchHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnHeartbeat, MemoryMB: cfg.HeartbeatMemMB,
	}, d.heartbeatHandler)

	// One concurrent leader instance per shard guarantees serialized
	// commits within a shard (Z3; a subtree never spans shards).
	for _, q := range d.LeaderQs {
		d.Platform.AddQueueTrigger(q, FnLeader, 1)
	}

	if cfg.HeartbeatEvery > 0 {
		d.Platform.AddSchedule(FnHeartbeat, cfg.HeartbeatEvery)
	}

	if cfg.AutoShard.Enabled {
		d.K.Go("autoshard-monitor", d.autoShardMonitor)
	}

	d.seedRoot()
	return d
}

// addShardQueue provisions one more leader queue with its serialized
// trigger (the reshard engine grows the fleet before flipping the map, so
// a routing target always has a consumer).
func (d *Deployment) addShardQueue() {
	s := len(d.LeaderQs)
	q := queue.New(d.Env, fmt.Sprintf("leader-%d", s), d.Cfg.Profile.OrderedQueueKind())
	d.LeaderQs = append(d.LeaderQs, q)
	d.Platform.AddQueueTrigger(q, FnLeader, 1)
}

func (d *Deployment) newUserStore(r cloud.Region) UserStore {
	switch d.Cfg.UserStore {
	case StoreKV:
		return NewKVStore(d.Env, "user-data-"+string(r), r)
	case StoreHybrid:
		return NewHybridStore(d.Env, "user-data-"+string(r), r, hybridThresholdB)
	case StoreMem:
		return NewMemStore(d.Env, r)
	default:
		return NewObjectStore(d.Env, "user-data-"+string(r), r)
	}
}

// seedRoot bootstraps "/" in system and user stores at no cost.
func (d *Deployment) seedRoot() {
	d.System.SeedPut(nodeKey(znode.Root), kv.Item{
		attrExists:   kv.N(1),
		attrChildren: kv.StrList(),
	})
	root := &znode.Node{Path: znode.Root}
	for _, s := range d.Stores {
		s.Seed(root)
	}
}

// PrimaryStore returns the home-region user store.
func (d *Deployment) PrimaryStore() UserStore { return d.Stores[0] }

// StoreFor returns the user store local to a region, falling back to the
// primary (clients connect to the closest storage, Section 4.1).
func (d *Deployment) StoreFor(region cloud.Region) UserStore {
	for _, s := range d.Stores {
		if s.Region() == region {
			return s
		}
	}
	return d.Stores[0]
}

// CacheFor returns the regional cache node local to a region (nil when the
// cache tier is off), with the same closest-replica fallback as StoreFor.
func (d *Deployment) CacheFor(region cloud.Region) *cache.Regional {
	if len(d.Caches) == 0 {
		return nil
	}
	for _, c := range d.Caches {
		if c.Region() == region {
			return c
		}
	}
	return d.Caches[0]
}

// FanoutFor returns the watch fan-out node local to a region (nil when
// the tier is off), with the same closest-replica fallback as StoreFor.
func (d *Deployment) FanoutFor(region cloud.Region) *watchfanout.Node {
	if len(d.Fanouts) == 0 {
		return nil
	}
	for _, n := range d.Fanouts {
		if n.Region() == region {
			return n
		}
	}
	return d.Fanouts[0]
}

// Connect provisions the cloud-side transport for a new session: a FIFO
// request queue with a follower trigger (one concurrent instance per
// session preserves the session's FIFO order while different sessions
// proceed in parallel — Section 4.3 "horizontal scaling"), and a duplex
// connection for responses.
func (d *Deployment) Connect(sessionID string, region cloud.Region) *SessionTransport {
	if _, dup := d.sessions[sessionID]; dup {
		panic("core: duplicate session " + sessionID)
	}
	q := queue.New(d.Env, "session-"+sessionID, d.Cfg.Profile.OrderedQueueKind())
	conn := network.NewConn(d.Env, d.Cfg.Profile.Home, region)
	st := &SessionTransport{
		ID:        sessionID,
		Region:    region,
		Queue:     q,
		ClientEnd: conn.B(),
		cloudEnd:  conn.A(),
		pongs:     sim.NewQueue[Pong](d.K),
	}
	d.sessions[sessionID] = st
	d.Platform.AddQueueTrigger(q, FnFollower, 1)
	// Ingress: route client->cloud traffic (heartbeat replies).
	d.K.Go("ingress-"+sessionID, func() {
		for {
			pkt, ok := st.cloudEnd.Recv()
			if !ok {
				return
			}
			if pong, isPong := pkt.Payload.(Pong); isPong {
				st.pongs.Push(pong)
			}
		}
	})
	return st
}

// Transport returns the transport of a connected session, or nil.
func (d *Deployment) Transport(sessionID string) *SessionTransport {
	return d.sessions[sessionID]
}

// ReleaseTransport tears down a session's queue and connection after the
// session has been deregistered.
func (d *Deployment) ReleaseTransport(sessionID string) {
	st := d.sessions[sessionID]
	if st == nil {
		return
	}
	st.closed = true
	st.Queue.Close()
	st.cloudEnd.Close()
	delete(d.sessions, sessionID)
}

// notify sends a message to the session's client, dropping it if the
// session is gone (a dead client's responses vanish, as in the cloud).
func (d *Deployment) notify(sessionID string, payload any, size int) {
	st := d.sessions[sessionID]
	if st == nil || st.closed {
		return
	}
	st.cloudEnd.Send(payload, size)
}

// recordPhase observes one function phase's duration in the registry's
// "phase" histograms (Figures 9-13, Table 3); a no-op without Telemetry.
func (d *Deployment) recordPhase(name string, dur sim.Time) {
	d.Obs.Metrics.Observe(obs.Key{Component: "phase", Name: name}, dur)
}

// Phase returns the recorded samples of one phase (nil if none).
func (d *Deployment) Phase(name string) *stats.Sample {
	return d.Obs.Metrics.Hist(obs.Key{Component: "phase", Name: name})
}

// ResetMetrics clears the cost meter and the telemetry spans, instruments
// and phase samples (used after warmup).
func (d *Deployment) ResetMetrics() {
	d.Env.Meter.Reset()
	d.Obs.Reset()
}

// RegisterSession writes the session record; the client library calls this
// during connection establishment.
func (d *Deployment) RegisterSession(ctx cloud.Ctx, sessionID string) error {
	return d.System.Put(ctx, sessionKey(sessionID), kv.Item{
		attrSessionReg:  kv.N(1),
		attrSessionAddr: kv.S(string(ctx.Region)),
		attrSessionEph:  kv.StrList(),
	}, nil)
}

// RegisterWatch adds the session to the watch group for (path, type) and
// returns the watch id the client must remember for epoch-based read
// ordering. Registration is a single system-store write (Section 4.1:
// "adding insignificant cost").
func (d *Deployment) RegisterWatch(ctx cloud.Ctx, path string, wt WatchType, sessionID string) (int64, error) {
	if d.fanoutOn() {
		// The fan-out tier owns all registrations: one-shot watches keep
		// their exact client-visible semantics but live on the regional
		// node instead of the system store.
		return d.fanoutRegister(ctx, path, wt, sessionID, watchfanout.PolicyImmediate, 0)
	}
	if wt >= WatchPersistent {
		return 0, ErrFanoutOff
	}
	attr := watchAttr(wt)
	_, err := d.System.Update(ctx, watchKey(path),
		[]kv.Update{kv.StrListAppend{Name: attr, Vals: []string{sessionID}}}, nil)
	if err != nil {
		return 0, err
	}
	return WatchID(path, wt), nil
}

// WatchArmed reports whether session's one-shot registration of (path,
// wt) is still unclaimed: a strongly consistent read finds the session in
// the watch item, so no leader has fired this registration yet. A client
// holding a node version stamped with the watch id then knows the stamp
// belongs to an earlier, already delivered registration. Always false on
// a fan-out deployment, whose registrations live on the regional nodes.
// wt must be a one-shot type (data, exists or child).
func (d *Deployment) WatchArmed(ctx cloud.Ctx, path string, wt WatchType, session string) bool {
	if d.fanoutOn() {
		return false
	}
	it, ok := d.System.GetView(ctx, watchKey(path), true)
	return ok && slices.Contains(it[watchAttr(wt)].SL, session)
}

func watchAttr(wt WatchType) string {
	switch wt {
	case WatchData:
		return attrWatchData
	case WatchExists:
		return attrWatchExists
	default:
		return attrWatchChild
	}
}

// NumShards returns the number of write shards the leader pipeline is
// partitioned into (1 in the paper's base configuration).
func (d *Deployment) NumShards() int { return len(d.LeaderQs) }

// WireCodec reports the deployment's message codec (Config.WireCodec
// parsed); the client library encodes its requests with the same one.
func (d *Deployment) WireCodec() wire.Codec { return d.Cfg.codec }

// Epoch returns the in-flight watch ids for a region, aggregated over all
// write shards (strongly consistent system-store reads; exposed for tests
// and the client library). The error is always nil, kept for API
// stability.
func (d *Deployment) Epoch(ctx cloud.Ctx, region cloud.Region) ([]int64, error) {
	var all []int64
	for s := 0; s < d.NumShards(); s++ {
		all = append(all, d.epochShard(ctx, region, s)...)
	}
	return all, nil
}

// epochShard reads one shard's epoch counter for a region (a missing item
// means no in-flight watches).
func (d *Deployment) epochShard(ctx cloud.Ctx, region cloud.Region, shard int) []int64 {
	it, ok := d.System.GetView(ctx, epochKey(region, shard), true)
	if !ok {
		return nil
	}
	// The item is a read-only view; callers append to the returned slice
	// (appendEpochs), so the list itself must be a private copy. Copying
	// just the epoch list skips cloning the whole item.
	return append([]int64(nil), it[attrEpochList].NL...)
}
