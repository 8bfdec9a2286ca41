package core

// The leader pipeline (Algorithm 2) runs every queued message through one
// loop. A per-message commit phase verifies the commit (➊/➋) and folds
// the operation's effect; a flush then distributes the folded state to
// the user stores (➌) and completes each operation in queue order: it
// launches the watch deliveries (➍), notifies the client, and pops the
// pending entry (➎). A flush holds one message unless Config.BatchWrites
// is set, and a flush of one issues exactly the paper's per-message
// operation order. Three rules, each derived from the flush's contents,
// make it so:
//
//   - Pending pop. An operation's pending entry pops right after its
//     client notification — unless a later message of the same flush
//     targets the same path: that message's commit check needs the head,
//     so the pop moves into the commit phase.
//   - Watch claim. A flush of one on a single-shard deployment claims
//     watches after distribution and enters each id into the epoch
//     counters right before launching its delivery. Every other flush
//     claims in the commit phase, before any of its values become
//     readable: a larger flush makes several values readable at once, and
//     on several shards a write on another shard may causally follow the
//     read (Z4).
//   - Invalidation. Each path's cache invalidation publishes right before
//     that path's own store write lands: node writes behind one coalesced
//     record, parent child-list rewrites inside their read-modify-write.
//
// A larger flush (BatchWrites) folds writes to the same node into its
// final state — one user-store write per region, stamped with the flush's
// epoch union and the path's newest txid — and coalesces creates and
// deletes into one parent child-list read-modify-write per parent. Every
// per-operation guarantee survives the fold:
//
//   - Each client receives its own Stat carrying its own txid/mzxid,
//     captured during that message's commit phase before later writes
//     fold over it (no final-stat leakage).
//   - Watch payloads carry the firing operation's txid.
//   - Client notifications go out only after the flush: a response in
//     hand implies the write is readable (read-your-writes), and
//     deregistration acks still order behind every ephemeral deletion's
//     distribution.
//   - A racing read of a path's old value can never re-fill a cache above
//     the overwrite: the invalidation rule is per path.

import (
	"slices"
	"sync"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// opResult is one message's buffered commit-phase outcome, completed
// (watch launch, notify, pending pop, dereg ack) after the flush.
type opResult struct {
	msg    leaderMsg
	txid   int64
	code   Code
	stat   znode.Stat
	fired  []firedWatch
	dereg  bool
	drop   bool // stranded by a reshard: the follower owns the retry, stay silent
	popped bool // pending entry already popped in the commit phase
}

// nodeFold is the final folded user-store state of one touched node.
type nodeFold struct {
	node *znode.Node // object to write; nil when the final op deleted it
	del  bool
	txid int64 // newest txid folded into this path (invalidation floor)
}

// parentFold coalesces a flush's child-list splices on one parent.
type parentFold struct {
	present  map[string]bool // child name -> final presence, in op order
	names    []string        // first-touch order, for deterministic splicing
	cversion int32           // max over the folded operations
	pzxid    int64           // max txid over the folded operations
	consumed bool            // merged into a node write or the shared root
}

// batchFold accumulates the net effect of one flush on the user stores.
// Operations fold in txid order (the queue batch's order), so "last write
// wins" per node and the child presence map reflects the final
// create/delete outcome even for create→delete→create chains.
type batchFold struct {
	order       []string // node paths in first-touch order
	nodes       map[string]*nodeFold
	parentOrder []string
	parents     map[string]*parentFold

	// owner is the flush's single message when the flush holds one: its
	// regional legs then attach to that request's trace and bill, like
	// Algorithm 2's per-message legs. Nil for a fold serving many requests
	// (or a transaction): the legs go on the shared pipeline track.
	owner *leaderMsg
}

// batchFoldPool recycles the per-flush fold's maps and slices: every
// flush allocates one, and the bucket arrays dominate its cost.
var batchFoldPool = sync.Pool{New: func() any {
	return &batchFold{nodes: map[string]*nodeFold{}, parents: map[string]*parentFold{}}
}}

func newBatchFold() *batchFold { return batchFoldPool.Get().(*batchFold) }

// release returns the fold to the pool. Callers invoke it only once the
// flush holds no further references — after distributeFold's regional
// goroutines have all joined and any post-distribution lookups
// (transaction pending pops) are done. The entry structs are dropped,
// not recycled: node pointers were handed to the stores.
func (f *batchFold) release() {
	clear(f.nodes)
	clear(f.parents)
	f.order = f.order[:0]
	f.parentOrder = f.parentOrder[:0]
	f.owner = nil
	batchFoldPool.Put(f)
}

// empty reports whether the fold has nothing to distribute.
func (f *batchFold) empty() bool { return len(f.order) == 0 && len(f.parentOrder) == 0 }

// invSlicePool recycles the per-region invalidation record assembled on
// every flush; InvalidateBatch does not retain the slice (apply copies the
// epoch stamp it keeps).
var invSlicePool = sync.Pool{New: func() any { return new([]cache.Invalidation) }}

// foldWrite records path's newest object; an earlier write or tombstone
// of the same path in this flush is superseded.
func (f *batchFold) foldWrite(path string, n *znode.Node, txid int64) {
	nf, ok := f.nodes[path]
	if !ok {
		nf = &nodeFold{}
		f.nodes[path] = nf
		f.order = append(f.order, path)
	}
	nf.node, nf.del, nf.txid = n, false, txid
}

// foldDelete records that path's final state in this flush is deleted.
func (f *batchFold) foldDelete(path string, txid int64) {
	nf, ok := f.nodes[path]
	if !ok {
		nf = &nodeFold{}
		f.nodes[path] = nf
		f.order = append(f.order, path)
	}
	nf.node, nf.del, nf.txid = nil, true, txid
}

// foldParent applies one create/delete's child splice to the parent's
// coalesced state.
func (f *batchFold) foldParent(parent, childAdd, childDel string, cversion int32, txid int64) {
	pf, ok := f.parents[parent]
	if !ok {
		pf = &parentFold{present: map[string]bool{}}
		f.parents[parent] = pf
		f.parentOrder = append(f.parentOrder, parent)
	}
	if childAdd != "" {
		if _, seen := pf.present[childAdd]; !seen {
			pf.names = append(pf.names, childAdd)
		}
		pf.present[childAdd] = true
	}
	if childDel != "" {
		if _, seen := pf.present[childDel]; !seen {
			pf.names = append(pf.names, childDel)
		}
		pf.present[childDel] = false
	}
	if cversion > pf.cversion {
		pf.cversion = cversion
	}
	if txid > pf.pzxid {
		pf.pzxid = txid
	}
}

// spliceInto applies a parent fold to a node object: the final child
// presences, applied idempotently (a shared object's child list may have
// been refreshed from the system store while the splice was queued), and
// only-raised stamps (within a shard they are monotone anyway, and on a
// shared path two shards may apply their splices out of global txid
// order).
func spliceInto(n *znode.Node, pf *parentFold) {
	for _, name := range pf.names {
		if pf.present[name] {
			if !slices.Contains(n.Children, name) {
				n.Children = append(n.Children, name)
			}
		} else {
			n.Children = removeString(n.Children, name)
		}
	}
	if pf.cversion > n.Stat.Cversion {
		n.Stat.Cversion = pf.cversion
	}
	if pf.pzxid > n.Stat.Pzxid {
		n.Stat.Pzxid = pf.pzxid
	}
	n.Stat.NumChildren = int32(len(n.Children))
}

// leaderProcess runs one invocation's messages through the pipeline.
// Transaction messages and reshard fences are fold barriers; every run of
// messages between them flushes in chunks of the flush size.
func (d *Deployment) leaderProcess(ctx cloud.Ctx, msgs []decodedMsg, epochs map[cloud.Region][]int64) []watchCompletion {
	// Tombstone-GC lookahead: a delete followed in the same invocation by
	// another operation on the same path (create→delete→create) must not
	// collect the node item — the later operation's follower commit may
	// not have appended to the pending list yet, and collecting the item
	// would strand that commit.
	later := map[string]int{}
	for _, dm := range msgs {
		switch dm.msg.Op {
		case OpDeregister, OpReshardFence:
		case OpMulti, OpTxnCommit:
			// Transaction targets count toward the lookahead too, so a
			// delete before them never collects a tombstone the
			// transaction's commit still needs. The transaction itself
			// never decrements — at worst a tombstone lingers until the
			// next delete's collection, the lock-guard precedent.
			if tm, err := decodeTxnMsgWith(d.Cfg.codec, dm.msg.NodeBlob); err == nil {
				for _, p := range txnTargets(tm.Ops) {
					later[p]++
				}
			}
		default:
			later[dm.msg.Path]++
		}
	}
	// The flush size: one message — Algorithm 2 — unless BatchWrites
	// folds the whole invocation, capped by MaxBatch.
	size := 1
	if d.Cfg.BatchWrites {
		size = len(msgs)
		if d.Cfg.MaxBatch > 0 {
			size = d.Cfg.MaxBatch
		}
	}
	var completions []watchCompletion
	var run []decodedMsg
	flushRun := func() {
		for start := 0; start < len(run); start += size {
			end := min(start+size, len(run))
			completions = append(completions, d.flushBatch(ctx, run[start:end], later, epochs)...)
		}
		run = nil
	}
	for _, dm := range msgs {
		switch dm.msg.Op {
		case OpMulti, OpTxnCommit:
			// Transaction distribution has its own atomicity protocol
			// (txnops.go): the accumulated run flushes first.
			flushRun()
			t0 := d.K.Now()
			completions = append(completions, d.leaderProcessTxn(d.billMsg(ctx, dm.msg), dm.msg, dm.txid, epochs)...)
			d.recordPhase("leader.total", d.K.Now()-t0)
		case OpReshardFence:
			// The ack promises every earlier message of this serialized
			// queue has been distributed: release the reshard coordinator
			// only after the run flushes.
			flushRun()
			d.ackFence(d.billSys(ctx, dm.msg.Shard), dm.msg)
		default:
			run = append(run, dm)
		}
	}
	flushRun()
	return completions
}

// leaderProcessTxn dispatches a transaction message: a single-shard
// multi() (the fast path's leader commit phase) or one shard's share of a
// cross-shard transaction commit.
func (d *Deployment) leaderProcessTxn(ctx cloud.Ctx, msg leaderMsg, txid int64, epochs map[cloud.Region][]int64) []watchCompletion {
	tm, err := decodeTxnMsgWith(d.Cfg.codec, msg.NodeBlob)
	if err != nil {
		return nil
	}
	if msg.Op == OpMulti {
		return d.leaderProcessMulti(ctx, msg, tm, txid, epochs)
	}
	return d.leaderTxnCommit(ctx, msg, tm, txid, epochs)
}

// flushBatch runs the commit phase over one flush, distributes the folded
// state, and completes every buffered operation in queue order.
func (d *Deployment) flushBatch(ctx cloud.Ctx, msgs []decodedMsg, later map[string]int, epochs map[cloud.Region][]int64) []watchCompletion {
	tBatch := d.K.Now()
	fold := newBatchFold()
	if len(msgs) == 1 {
		fold.owner = &msgs[0].msg
	}
	// The watch-claim rule (see the top of this file).
	preClaim := len(msgs) > 1 || d.NumShards() > 1
	// The distribution serves the whole flush at once: its charges
	// amortize across the flush's traces (untraced members keep their
	// share in the system bucket). Commit phases stay per-message.
	dctx := ctx
	if d.costOn() {
		traces := make([]int64, 0, len(msgs))
		for _, dm := range msgs {
			traces = append(traces, costMsgTrace(dm.msg))
		}
		dctx = d.billFold(ctx, traces, msgs[0].msg.Shard, "")
	}
	results := make([]opResult, 0, len(msgs))
	for i, dm := range msgs {
		popNow := false
		if dm.msg.Op != OpDeregister {
			for _, next := range msgs[i+1:] {
				if next.msg.Op != OpDeregister && next.msg.Path == dm.msg.Path {
					popNow = true
					break
				}
			}
		}
		results = append(results, d.commitOne(d.billMsg(ctx, dm.msg), dm, fold, later, epochs, preClaim, popNow))
	}

	// Every committed message's chain enters the flush stage together: the
	// distribution serves all of them at once.
	for _, r := range results {
		if !r.drop && !r.dereg && r.code == CodeOK {
			d.stageMsg(r.msg, obs.StageFlush)
		}
	}
	if !fold.empty() {
		t0 := d.K.Now()
		d.distributeFold(dctx, fold, epochs, false)
		d.recordPhase("leader.update", d.K.Now()-t0)
	}
	fold.release()

	var completions []watchCompletion
	for _, r := range results {
		if r.drop {
			continue
		}
		mctx := d.billMsg(ctx, r.msg)
		if r.dereg {
			// Processed only after the flush: the ack's shard-FIFO position
			// put it behind the session's ephemeral deletions, and the
			// flush just distributed them.
			if d.deregAckComplete(mctx, r.msg) {
				d.notifyResult(r.msg, r.txid, CodeOK, znode.Stat{})
			}
			continue
		}
		if r.code != CodeOK {
			d.notifyResult(r.msg, r.txid, r.code, r.stat)
			continue
		}
		if d.fanoutOn() {
			// The write is readable: release this operation's parked
			// firings at the fan-out nodes.
			d.fanoutRelease(mctx, r.txid)
		} else if !preClaim {
			t0 := d.K.Now()
			r.fired = d.queryWatches(mctx, r.msg)
			d.recordPhase("leader.watchquery", d.K.Now()-t0)
		}
		for _, fw := range r.fired {
			if !preClaim {
				// The paper's interleaving: enter each id into the epoch
				// counters right before launching its delivery.
				d.appendEpochs(mctx, []firedWatch{fw}, r.msg.Shard, epochs)
			}
			payload := watchPayload{
				WatchID: fw.wid, Event: fw.event, Path: fw.path, Txid: r.txid, Sessions: fw.sessions,
			}
			sp := d.tspan(d.msgTrace(r.msg), obs.SpanWatchDeliver, fw.path, r.msg.Shard, "")
			// The delivery's whole cost — invocation, fan-out pushes, the
			// watch sandbox's GB-s — rides the propagated sink into this span.
			wctx := d.billSpan(ctx, costMsgTrace(r.msg), sp, r.msg.Shard, "")
			fut := d.Platform.InvokeAsync(wctx, FnWatch, d.encodeWatchOwned(payload))
			completions = append(completions, watchCompletion{wid: fw.wid, fut: fut, span: sp})
		}
		tn := d.K.Now()
		d.notifyResult(r.msg, r.txid, CodeOK, r.stat)
		d.recordPhase("leader.notify", d.K.Now()-tn)
		if !r.popped {
			d.popPending(mctx, r.msg, r.txid, later[r.msg.Path] == 0)
		}
	}
	d.recordPhase("leader.total", d.K.Now()-tBatch)
	return completions
}

// commitOne is the per-message commit phase: it verifies the commit,
// claims watches when the flush claims before distribution (preClaim),
// and folds the operation's effect. popNow pops the pending entry here,
// for a later message of the same flush on the same path. The Stat is
// captured from this operation's own txid and version, before any later
// operation folds over the node.
func (d *Deployment) commitOne(ctx cloud.Ctx, dm decodedMsg, fold *batchFold, later map[string]int, epochs map[cloud.Region][]int64, preClaim, popNow bool) opResult {
	msg, txid := dm.msg, dm.txid
	if msg.Op == OpDeregister {
		return opResult{msg: msg, txid: txid, dereg: true}
	}
	later[msg.Path]--
	// ➊ Fetch the node's control record and verify our transaction is the
	// head of its pending list (➋ trying to commit on behalf of a crashed
	// follower when it is not).
	d.stageMsg(msg, obs.StageCommit)
	t0 := d.K.Now()
	node, committed := d.awaitCommit(ctx, msg, txid)
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !committed {
		if d.staleDynMsg(ctx, msg, dynGen(msg)) {
			// Stranded by a reshard. A live follower saw its commit fail
			// the generation guard and owns the re-route — answering here
			// would race the retry's response. But a follower that died
			// between push and commit never retries (the push marked the
			// request processed, so queue redelivery dedups it away); its
			// tell is the message's own lock timestamps still on the node.
			// Reclaiming those locks decides the race exactly once.
			if d.reclaimFencedMsg(ctx, msg) {
				return opResult{msg: msg, txid: txid, code: CodeSystemError}
			}
			return opResult{msg: msg, txid: txid, code: CodeSystemError, drop: true}
		}
		return opResult{msg: msg, txid: txid, code: CodeSystemError}
	}

	var fired []firedWatch
	if d.fanoutOn() || preClaim {
		t0 = d.K.Now()
		if d.fanoutOn() {
			// Fan-out tier: one notification record per (path, txid) to the
			// regional nodes, published before distribution so the epoch
			// stamps land in the value writes (Z4); released after the
			// flush. The node owns delivery.
			d.fanoutPublish(ctx, msg, txid, epochs)
		} else {
			fired = d.queryWatches(ctx, msg)
			d.appendEpochs(ctx, fired, msg.Shard, epochs)
		}
		d.recordPhase("leader.watchquery", d.K.Now()-t0)
	}

	var stat znode.Stat
	switch {
	case msg.Op == OpDelete:
		fold.foldDelete(msg.Path, txid)
		if msg.ParentPath != "" {
			fold.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
		}
	default:
		if n := d.buildUserNode(msg, txid, node); n != nil {
			stat = n.Stat
			fold.foldWrite(msg.Path, n, txid)
			if msg.ParentPath != "" {
				fold.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
			}
		}
	}

	if popNow {
		// The later message on this path is in the same flush, so the
		// tombstone must survive: no collection here.
		d.popPending(ctx, msg, txid, false)
	}
	return opResult{msg: msg, txid: txid, code: CodeOK, stat: stat, fired: fired, popped: popNow}
}

// foldLeg returns the context one regional leg of a fold bills to, and
// opens the leg's child span when name is set. With an owner (a flush of
// one) both attach to that request, exactly like Algorithm 2's
// per-message legs; otherwise the span goes on the shared pipeline track
// (trace 0) and charges amortize through ctx's fold bill.
func (d *Deployment) foldLeg(ctx cloud.Ctx, owner *leaderMsg, name, region string) (cloud.Ctx, int64) {
	var sp int64
	if owner == nil {
		if name != "" {
			sp = d.tspan(0, name, "", -1, region)
		}
		return ctx, sp
	}
	if name != "" {
		sp = d.tspan(d.msgTrace(*owner), name, owner.Path, owner.Shard, region)
	}
	return d.billSpan(ctx, costMsgTrace(*owner), sp, owner.Shard, region), sp
}

// distributeFold is ➌: the final state of every touched node behind one
// coalesced invalidation record, then one read-modify-write per parent,
// per region in parallel. atomicApply is the transaction commit point
// (package txn): node writes go through the store's AtomicApplier when it
// has one, becoming readable at a single instant; stores without
// multi-key transactions (the object store) fall back to writing in fold
// order, so readers observe a prefix of the transaction, never an
// arbitrary mix.
func (d *Deployment) distributeFold(ctx cloud.Ctx, fold *batchFold, epochs map[cloud.Region][]int64, atomicApply bool) {
	if fold.empty() {
		return
	}

	// Merge child-list splices into node objects rewritten in the same
	// fold: a per-parent RMW would read the store's pre-fold object and
	// either the splice or the data write would be lost. A parent deleted
	// in this fold drops its splices (its child list is moot). Shared
	// parents — the root of a sharded deployment, a split subtree's root
	// — are peeled off instead: their RMW must run under the cross-shard
	// lock.
	sharedPFs := map[string]*parentFold{}
	var sharedOrder []string
	for _, p := range fold.parentOrder {
		pf := fold.parents[p]
		if d.isSharedPath(p) {
			sharedPFs[p] = pf
			sharedOrder = append(sharedOrder, p)
			pf.consumed = true
			continue
		}
		nf, ok := fold.nodes[p]
		if !ok {
			continue
		}
		pf.consumed = true
		if nf.del {
			continue
		}
		spliceInto(nf.node, pf)
		if pf.pzxid > nf.txid {
			nf.txid = pf.pzxid
		}
	}

	// Cross-shard shared-path work — a data write to a shared object or a
	// create/delete splice under it — is serialized under the path's
	// shared lock (an interleaved RMW from another shard would lose
	// children). Every flush takes its locks in sorted path order while
	// holding none, so two flushes on different shards never deadlock: a
	// fold that rewrites a shared object takes them all before its
	// regional writes (the rewrite refreshes the child list under the
	// lock); one that only splices shared parents takes them after, right
	// before the splices.
	var held []fksync.Lock
	defer func() {
		for i := len(held) - 1; i >= 0; i-- {
			_ = d.Locks.Release(ctx, held[i])
		}
	}()
	lockSorted := func(paths []string) {
		slices.Sort(paths)
		for _, p := range slices.Compact(paths) {
			held = append(held, d.acquireSharedLock(ctx, p))
		}
	}
	var rewritten []string
	for _, p := range fold.order {
		if nf := fold.nodes[p]; !nf.del && d.isSharedPath(p) {
			rewritten = append(rewritten, p)
		}
	}
	if len(rewritten) > 0 {
		lockSorted(append(slices.Clone(rewritten), sharedOrder...))
		for _, p := range rewritten {
			d.refreshSharedFromSystem(ctx, p, fold.nodes[p].node)
		}
	}

	wg := sim.NewWaitGroup(d.K)
	for _, s := range d.Stores {
		s := s
		wg.Add(1)
		d.K.Go("leader-update-"+string(s.Region()), func() {
			defer wg.Done()
			region := string(s.Region())
			stamp := epochs[s.Region()]
			// One coalesced record per touched node, published before any
			// of the fold's node writes become readable in this region.
			if rc := d.CacheFor(s.Region()); rc != nil {
				lctx, sp := d.foldLeg(ctx, fold.owner, obs.SpanCacheInval, region)
				buf := invSlicePool.Get().(*[]cache.Invalidation)
				invs := fold.appendInvalidations((*buf)[:0], stamp, d.cacheMapEpoch())
				rc.InvalidateBatch(lctx, invs)
				*buf = invs[:0]
				invSlicePool.Put(buf)
				d.spanEnd(sp)
			}
			lctx, sp := d.foldLeg(ctx, fold.owner, obs.SpanStoreWrite, region)
			if aa, atomic := s.(AtomicApplier); atomicApply && atomic {
				writes := make([]BatchWrite, 0, len(fold.order))
				for _, p := range fold.order {
					nf := fold.nodes[p]
					if nf.del {
						writes = append(writes, BatchWrite{Path: p})
					} else {
						writes = append(writes, BatchWrite{Path: p, Node: nf.node, Epoch: stamp})
					}
				}
				_ = aa.ApplyBatch(lctx, writes)
			} else {
				for _, p := range fold.order {
					nf := fold.nodes[p]
					if nf.del {
						_ = s.Delete(lctx, p)
					} else {
						_ = s.Write(lctx, nf.node, stamp)
					}
				}
			}
			d.spanEnd(sp)
			// Creates and deletes also change the parent's child list, which
			// lives in the parent's node object: a read-modify-write cycle,
			// because object stores lack partial updates (Section 3.2,
			// Requirement #6).
			pctx, _ := d.foldLeg(ctx, fold.owner, "", region)
			for _, p := range fold.parentOrder {
				if pf := fold.parents[p]; !pf.consumed {
					d.applyParentFold(pctx, s, p, pf, stamp)
				}
			}
		})
	}
	wg.Wait()

	// The shared parents' coalesced splices run after the regional writes,
	// under the shared locks. The per-region stamps hold the union of every
	// shard's epoch list, so an in-flight child-watch notification fired by
	// any shard still holds reads of the parent (Z4).
	if len(sharedOrder) > 0 && len(rewritten) == 0 {
		lockSorted(slices.Clone(sharedOrder))
	}
	for _, p := range sharedOrder {
		p, pf := p, sharedPFs[p]
		rwg := sim.NewWaitGroup(d.K)
		for _, s := range d.Stores {
			s := s
			rwg.Add(1)
			d.K.Go("leader-root-"+string(s.Region()), func() {
				defer rwg.Done()
				d.applyParentFold(ctx, s, p, pf, epochs[s.Region()])
			})
		}
		rwg.Wait()
	}
}

// appendInvalidations assembles the fold's coalesced multi-path
// invalidation record for one region into invs (pooled scratch): each
// touched node once, at its newest folded txid. Parents rewritten by a
// separate read-modify-write publish their own record (applyParentFold).
func (f *batchFold) appendInvalidations(invs []cache.Invalidation, stamp []int64, mapEpoch int64) []cache.Invalidation {
	for _, p := range f.order {
		invs = append(invs, cache.Invalidation{Path: p, Mzxid: f.nodes[p].txid, Epoch: stamp, MapEpoch: mapEpoch})
	}
	return invs
}

// applyParentFold is one read-modify-write of a parent in one region:
// read, apply the coalesced splices, raise the stamps, write back. The
// rebuilt object replaces a cached copy whose child list is now stale, so
// the path's invalidation publishes right before the write lands.
func (d *Deployment) applyParentFold(ctx cloud.Ctx, s UserStore, path string, pf *parentFold, stamp []int64) {
	parent, _, err := s.Read(ctx, path)
	if err != nil {
		return
	}
	spliceInto(parent, pf)
	if rc := d.CacheFor(s.Region()); rc != nil {
		rc.Invalidate(ctx, d.cacheInv(path, pf.pzxid, stamp))
	}
	_ = s.Write(ctx, parent, stamp)
}
