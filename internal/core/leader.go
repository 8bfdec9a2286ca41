package core

import (
	"fmt"
	"strings"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// leaderHandler is Algorithm 2: for each validated change it verifies the
// system-store commit (➊/➋), distributes the new data to every region's
// user store (➌), queries and fires watches (➍), notifies the client, and
// pops the per-node transaction (➎). Watch deliveries finish before the
// function returns, removing their ids from the epoch counters (➏).
type watchCompletion struct {
	wid int64
	fut *sim.Future[error]
	// span is the delivery's telemetry child span (0 with telemetry off),
	// opened at InvokeAsync and closed when the completion is reaped.
	span int64
}

// decodedMsg is one peeled leader-queue message with its derived txid.
type decodedMsg struct {
	msg  leaderMsg
	txid int64
}

func (d *Deployment) leaderHandler(inv *faas.Invocation) error {
	ctx := inv.Ctx
	// A batch comes from exactly one shard's queue; decoding is free, so
	// peel the messages first to learn the shard.
	msgs := make([]decodedMsg, 0, len(inv.Messages))
	shard := 0
	acksOnly := true
	for _, m := range inv.Messages {
		msg, err := decodeLeaderMsgWith(d.Cfg.codec, m.Body)
		if err != nil {
			continue
		}
		shard = msg.Shard
		if msg.Op != OpDeregister && msg.Op != OpReshardFence {
			acksOnly = false
		}
		msgs = append(msgs, decodedMsg{msg: msg, txid: d.msgTxid(m.SeqNo, msg)})
	}
	if len(msgs) == 0 {
		return nil
	}
	if d.costOn() {
		traces := make([]int64, 0, len(msgs))
		for _, dm := range msgs {
			traces = append(traces, costMsgTrace(dm.msg))
		}
		// The sandbox's GB-s and the batch-shared work below (epoch loads,
		// epoch removals after watch deliveries) amortize across the
		// batch's requests; per-message phases re-sink to their own trace.
		inv.Bill = d.invBill(traces, shard)
		ctx = d.billFold(ctx, traces, shard, "")
	}
	// Crash at batch start, before any message is processed or any epoch
	// entered: redelivery replays the whole batch through awaitCommit's
	// orphan/TryCommit path. Later crash windows are unsafe to fake at
	// this granularity (a watch already launched would strand its epoch
	// entry), so leader crashes are injected only here.
	if d.crashAt(obs.StageCommit, msgs[0].msg.Session, msgs[0].msg.Seq) {
		return errInjectedCrash
	}
	// Load the per-region epoch counters once per batch; they are
	// maintained in the system store across invocations (functions are
	// stateless) and mirrored here while the batch runs. With several
	// shards the per-region stamp is the union over every shard's list: a
	// strongly consistent read at batch start sees every watch id whose
	// notification causally precedes this batch's writes (the client that
	// triggered a write observed its previous response only after the
	// firing shard appended the id), so reads of any node still hold for
	// undelivered cross-shard notifications (Z4). On a multi-shard
	// deployment, batches of pure deregistration acks never touch epochs
	// and skip the reads (the single-shard path keeps them so it stays
	// operation-for-operation identical to the paper's pipeline).
	epochs := make(map[cloud.Region][]int64, len(d.Stores))
	if !acksOnly || d.NumShards() == 1 {
		if n := d.NumShards(); n == 1 {
			for _, s := range d.Stores {
				epochs[s.Region()] = d.epochShard(ctx, s.Region(), shard)
			}
		} else {
			cells := make([][]int64, len(d.Stores)*n)
			wg := sim.NewWaitGroup(d.K)
			for ri, s := range d.Stores {
				r := s.Region()
				for sh := 0; sh < n; sh++ {
					ri, sh := ri, sh
					wg.Add(1)
					d.K.Go("leader-epoch-load", func() {
						defer wg.Done()
						cells[ri*n+sh] = d.epochShard(ctx, r, sh)
					})
				}
			}
			wg.Wait()
			for ri, s := range d.Stores {
				var union []int64
				for sh := 0; sh < n; sh++ {
					union = append(union, cells[ri*n+sh]...)
				}
				epochs[s.Region()] = union
			}
		}
	}
	completions := d.leaderProcess(ctx, msgs, epochs)
	// WaitAll(WatchCallback): every delivery completes before the function
	// returns, and its id leaves the epoch counter (➏).
	for _, c := range completions {
		_ = c.fut.Wait()
		d.spanEnd(c.span)
		for _, s := range d.Stores {
			r := s.Region()
			_, err := d.System.Update(ctx, epochKey(r, shard),
				[]kv.Update{kv.ListRemove{Name: attrEpochList, Vals: []int64{c.wid}}}, nil)
			if err != nil {
				return err
			}
			epochs[r] = removeID(epochs[r], c.wid)
		}
	}
	return nil
}

// popPending is step ➎: pop the transaction from the node's pending list;
// once empty on a deleted node, garbage collect the tombstone (gc false
// suppresses the collection — passed when a later operation in the same
// invocation targets the path, whose commit may not have appended to the
// pending list yet).
func (d *Deployment) popPending(ctx cloud.Ctx, msg leaderMsg, txid int64, gc bool) {
	t0 := d.K.Now()
	key := nodeKey(msg.Path)
	it, err := d.System.Update(ctx, key,
		[]kv.Update{kv.ListPopHead{Name: attrPending}},
		kv.NumListHeadEq{Name: attrPending, V: txid})
	if err == nil && gc && msg.Op == OpDelete {
		after := decodeSysNode(it)
		if !after.Exists && len(after.Pending) == 0 {
			// The lock guard keeps the collection from racing a pipelined
			// re-create: a follower validating create-after-delete holds
			// the node lock from before its push until its commit, and
			// deleting the item in that window would strand the commit
			// (its conditional update needs the lock attribute to
			// survive). A locked tombstone is simply left for the next
			// delete's collection.
			_ = d.System.Delete(ctx, key, kv.And{
				kv.Eq{Name: attrExists, V: kv.N(0)},
				kv.Eq{Name: attrPending, V: kv.NumList()},
				kv.AttrNotExists{Name: "lock"},
			})
		}
	}
	d.recordPhase("leader.pop", d.K.Now()-t0)
}

// deregAckComplete processes one shard's deregistration ack and reports
// whether the whole fanout is now complete (the caller then answers the
// client). Each copy is FIFO-ordered behind the session's ephemeral
// deletions on its shard, so completion implies every deletion has been
// distributed. The barrier is a system-store item — functions are
// stateless — holding "<deregID>/<shard>" markers: the atomic append is
// idempotent under queue-retry redelivery (markers are counted as a set)
// and markers from an abandoned earlier fanout carry a different id, so
// they can never satisfy this one.
func (d *Deployment) deregAckComplete(ctx cloud.Ctx, msg leaderMsg) bool {
	if msg.Fanout <= 1 {
		// Single-shard ack: the queue order alone is the barrier, exactly
		// the paper's unsharded deregistration path.
		return true
	}
	mark := fmt.Sprintf("%d/%d", msg.DeregID, msg.Shard)
	it, err := d.System.Update(ctx, deregKey(msg.Session),
		[]kv.Update{kv.StrListAppend{Name: attrDeregAcks, Vals: []string{mark}}}, nil)
	if err != nil {
		return false
	}
	prefix := fmt.Sprintf("%d/", msg.DeregID)
	seen := map[string]bool{}
	for _, m := range it[attrDeregAcks].SL {
		if strings.HasPrefix(m, prefix) {
			seen[m] = true
		}
	}
	if len(seen) < msg.Fanout {
		return false
	}
	_ = d.System.Delete(ctx, deregKey(msg.Session), nil)
	return true
}

// awaitCommit resolves the race between the push (③, which intentionally
// precedes the commit ④) and the leader observing the transaction. It
// polls the node's pending list, replays the commit on behalf of a
// follower that appears to have died (➋), and clears orphaned pending
// heads left behind by transactions the leader previously abandoned —
// without this last step a single lost transaction would wedge the node's
// pipeline forever.
func (d *Deployment) awaitCommit(ctx cloud.Ctx, msg leaderMsg, txid int64) (sysNode, bool) {
	const attempts = 10
	triedCommit := false
	for attempt := 0; attempt < attempts; attempt++ {
		it, ok := d.System.GetView(ctx, nodeKey(msg.Path), true)
		if ok {
			node := decodeSysNode(it)
			if len(node.Pending) > 0 {
				head := node.Pending[0]
				if head == txid {
					return node, true
				}
				if d.dyn != nil && shardmap.ShardOfTxid(head) != msg.Shard {
					// A migration boundary: the head was minted by another
					// shard, and txids across shards carry no order — the
					// head is a live write of the path's new owner, never
					// an orphan of ours. Keep polling (an uncommitted
					// stray of this shard gives up and is dropped).
					d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
					continue
				}
				if head < txid {
					// Orphan from an abandoned transaction: pop and retry.
					_, _ = d.System.Update(ctx, nodeKey(msg.Path),
						[]kv.Update{kv.ListPopHead{Name: attrPending}},
						kv.NumListHeadEq{Name: attrPending, V: head})
					continue
				}
				// head > txid: our entry was already consumed (a duplicate
				// delivery after a retry); treat as not committed.
				return sysNode{}, false
			}
		}
		// Nothing pending: the follower's commit may still be in flight,
		// or the follower died after pushing. After a short grace period,
		// replay the commit ourselves (➋); whichever of the two
		// conditional commits lands first wins and the next poll decides.
		if attempt >= 2 && !triedCommit {
			triedCommit = true
			d.tryCommit(ctx, msg, txid)
			continue
		}
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return sysNode{}, false
}

// reclaimFencedMsg resolves ownership of a pushed-then-fenced message
// whose follower may have died between push (③) and commit (④). A live
// follower either committed (locks gone) or saw the generation guard
// reject its commit and released the locks itself before re-routing
// (errStaleRoute) — in both cases the conditional release below fails and
// the follower owns the client's response. If the release lands, the
// locks were orphaned by a crash: no retry is coming (the push already
// marked the request processed in the warm-state dedup cache), so the
// caller must answer the client itself or the request is lost forever.
func (d *Deployment) reclaimFencedMsg(ctx cloud.Ctx, msg leaderMsg) bool {
	lockCond := func(ts int64) kv.Cond { return kv.Eq{Name: "lock", V: kv.N(ts)} }
	unlock := []kv.Update{kv.Remove{Name: "lock"}}
	switch msg.Op {
	case OpSetData:
		_, err := d.System.Update(ctx, nodeKey(msg.Path), unlock, lockCond(msg.LockTs))
		return err == nil
	case OpCreate, OpDelete:
		ops := []kv.TxOp{
			{Key: nodeKey(msg.Path), Updates: unlock, Cond: lockCond(msg.LockTs)},
			{Key: nodeKey(msg.ParentPath), Updates: unlock, Cond: lockCond(msg.ParentLockTs)},
		}
		return d.System.Transact(ctx, ops) == nil
	}
	return false
}

// tryCommit replays the follower's conditional commit using the lock
// timestamps carried in the message. It only succeeds while the original
// locks are still in place, which is exactly the crashed-follower window.
// On a dynamic deployment the replay carries the same shard-map
// generation guard the follower's own commit would have carried, so a
// replay can never land a write that a reshard already fenced out.
func (d *Deployment) tryCommit(ctx cloud.Ctx, msg leaderMsg, txid int64) bool {
	lockCond := func(ts int64) kv.Cond { return kv.Eq{Name: "lock", V: kv.N(ts)} }
	guard := d.dynGuard(msg.Shard, dynGen(msg))
	switch msg.Op {
	case OpSetData:
		ups := []kv.Update{
			kv.Set{Name: attrVersion, V: kv.N(int64(msg.Version))},
			kv.Set{Name: attrMzxid, V: kv.N(txid)},
			kv.ListAppend{Name: attrPending, Vals: []int64{txid}},
			kv.Remove{Name: "lock"},
		}
		if guard != nil {
			ops := append([]kv.TxOp{{Key: nodeKey(msg.Path), Updates: ups, Cond: lockCond(msg.LockTs)}}, guard...)
			return d.System.Transact(ctx, ops) == nil
		}
		_, err := d.System.Update(ctx, nodeKey(msg.Path), ups, lockCond(msg.LockTs))
		return err == nil
	case OpCreate:
		nodeUps := append(createNodeUpdates(txid, msg.EphOwner), kv.Remove{Name: "lock"})
		parentUps := append(createParentUpdates(msg.ChildAdd, txid), kv.Remove{Name: "lock"})
		ops := []kv.TxOp{
			{Key: nodeKey(msg.Path), Updates: nodeUps, Cond: lockCond(msg.LockTs)},
			{Key: nodeKey(msg.ParentPath), Updates: parentUps, Cond: lockCond(msg.ParentLockTs)},
		}
		return d.System.Transact(ctx, append(ops, guard...)) == nil
	case OpDelete:
		nodeUps := append(deleteNodeUpdates(txid), kv.Remove{Name: "lock"})
		parentUps := append(deleteParentUpdates(msg.ChildDel, txid), kv.Remove{Name: "lock"})
		ops := []kv.TxOp{
			{Key: nodeKey(msg.Path), Updates: nodeUps, Cond: lockCond(msg.LockTs)},
			{Key: nodeKey(msg.ParentPath), Updates: parentUps, Cond: lockCond(msg.ParentLockTs)},
		}
		return d.System.Transact(ctx, append(ops, guard...)) == nil
	}
	return false
}

// buildUserNode assembles the user-store object for one committed change:
// the follower's marshaled node patched with the transaction stamps only
// the leader knows. The version comes from the message, not from the
// system store: with pipelined writes the store may already reflect later
// commits. Nil for deletes (and undecodable blobs).
func (d *Deployment) buildUserNode(msg leaderMsg, txid int64, node sysNode) *znode.Node {
	if msg.Op == OpDelete {
		return nil
	}
	n, _, err := znode.Unmarshal(msg.NodeBlob)
	if err != nil {
		return nil
	}
	n.Stat.Mzxid = txid
	n.Stat.Version = msg.Version
	n.Stat.Czxid = node.Czxid
	if msg.Op == OpCreate {
		n.Stat.Czxid = txid
		n.Stat.Version = 0
	}
	n.Stat.Cversion = node.Cversion
	n.Stat.Pzxid = node.Pzxid
	n.Stat.DataLength = int32(len(n.Data))
	n.Children = node.Children
	n.Stat.NumChildren = int32(len(node.Children))
	return n
}

// cacheInv assembles the leader's per-path invalidation record, stamped
// with the shard-map epoch on dynamic deployments (0 otherwise).
func (d *Deployment) cacheInv(path string, txid int64, stamp []int64) cache.Invalidation {
	return cache.Invalidation{Path: path, Mzxid: txid, Epoch: stamp, MapEpoch: d.cacheMapEpoch()}
}

// cacheMapEpoch is the map epoch carried on cache invalidation records.
func (d *Deployment) cacheMapEpoch() int64 {
	if d.dyn == nil {
		return 0
	}
	return d.mapView().Epoch
}

// appendEpochs enters fired watch ids into the shard's per-region epoch
// counters (and the batch's in-memory mirror).
func (d *Deployment) appendEpochs(ctx cloud.Ctx, fired []firedWatch, shard int, epochs map[cloud.Region][]int64) {
	for _, f := range fired {
		for _, s := range d.Stores {
			r := s.Region()
			_, err := d.System.Update(ctx, epochKey(r, shard),
				[]kv.Update{kv.ListAppend{Name: attrEpochList, Vals: []int64{f.wid}}}, nil)
			if err != nil {
				continue
			}
			epochs[r] = append(epochs[r], f.wid)
		}
	}
}

// refreshSharedFromSystem overwrites a shared object's child list (and
// raises its child stamps) from the system store, the source of truth.
// Must run under the path's shared lock: a full-object write racing
// another shard's child splice would otherwise revert the child list.
func (d *Deployment) refreshSharedFromSystem(ctx cloud.Ctx, path string, n *znode.Node) {
	it, ok := d.System.Get(ctx, nodeKey(path), true)
	if !ok {
		return
	}
	fresh := decodeSysNode(it)
	n.Children = fresh.Children
	n.Stat.NumChildren = int32(len(fresh.Children))
	if fresh.Cversion > n.Stat.Cversion {
		n.Stat.Cversion = fresh.Cversion
	}
	if fresh.Pzxid > n.Stat.Pzxid {
		n.Stat.Pzxid = fresh.Pzxid
	}
}

// acquireSharedLock takes the system-store timed lock serializing every
// write to a shared path's user-store object (the tree root, or the root
// node of a split subtree). It retries until acquired: the lease makes
// the lock recoverable after a crash, and skipping the update would
// permanently corrupt the shared object's child listing.
func (d *Deployment) acquireSharedLock(ctx cloud.Ctx, path string) fksync.Lock {
	for {
		l, _, err := d.Locks.AcquireWait(ctx, sharedLockKey(path), 0)
		if err == nil {
			return l
		}
	}
}

type firedWatch struct {
	wid      int64
	event    EventType
	path     string
	sessions []string
}

// queryWatches reads the watch registrations touched by this operation and
// clears the fired (one-shot) groups. Shared-path watch groups (the root
// of a multi-shard deployment, a split subtree's root) are claimed with a
// conditional remove: two shard leaders may race between the read and the
// clear there (shared paths are the only ones whose watches fire from
// more than one shard), and firing the same group twice would consume a
// watch the client re-registered in its callback — only the leader whose
// conditional clear lands gets to fire. Everywhere else the owning
// shard's leader is serialized and keeps the paper's one batched clear.
func (d *Deployment) queryWatches(ctx cloud.Ctx, msg leaderMsg) []firedWatch {
	var fired []firedWatch
	collect := func(path string, pairs []struct {
		attr  string
		wt    WatchType
		event EventType
	}) {
		it, ok := d.System.GetView(ctx, watchKey(path), true)
		if !ok {
			return
		}
		var clear []kv.Update
		for _, p := range pairs {
			sessions := it[p.attr].SL
			if len(sessions) == 0 {
				continue
			}
			if d.isSharedPath(path) {
				_, err := d.System.Update(ctx, watchKey(path),
					[]kv.Update{kv.Remove{Name: p.attr}}, kv.AttrExists{Name: p.attr})
				if err != nil {
					continue // another shard's leader claimed this group
				}
			} else {
				clear = append(clear, kv.Remove{Name: p.attr})
			}
			fired = append(fired, firedWatch{
				wid:      WatchID(path, p.wt),
				event:    p.event,
				path:     path,
				sessions: append([]string(nil), sessions...),
			})
		}
		if len(clear) > 0 {
			_, _ = d.System.Update(ctx, watchKey(path), clear, nil)
		}
	}
	type pair = struct {
		attr  string
		wt    WatchType
		event EventType
	}
	switch msg.Op {
	case OpSetData:
		collect(msg.Path, []pair{{attrWatchData, WatchData, EventDataChanged}})
	case OpCreate:
		collect(msg.Path, []pair{{attrWatchExists, WatchExists, EventCreated}})
		collect(msg.ParentPath, []pair{{attrWatchChild, WatchChild, EventChildrenChanged}})
	case OpDelete:
		collect(msg.Path, []pair{
			{attrWatchData, WatchData, EventDeleted},
			{attrWatchExists, WatchExists, EventDeleted},
		})
		collect(msg.ParentPath, []pair{{attrWatchChild, WatchChild, EventChildrenChanged}})
	}
	return fired
}

func (d *Deployment) notifyResult(msg leaderMsg, txid int64, code Code, stat znode.Stat) {
	d.stageMsg(msg, obs.StageRespond)
	resp := Response{
		Session: msg.Session, Seq: msg.Seq, Code: code, Path: msg.Path,
		Stat: stat, Txid: txid,
	}
	if d.dyn != nil {
		resp.MapEpoch = d.mapView().Epoch
	}
	d.notify(msg.Session, resp, resp.wireSize())
}

func removeString(ss []string, s string) []string {
	out := ss[:0:0]
	for _, x := range ss {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

func removeID(ids []int64, id int64) []int64 {
	out := ids[:0:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
