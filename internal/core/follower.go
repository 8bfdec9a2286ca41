package core

import (
	"errors"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// errInjectedCrash simulates a follower dying between the leader push and
// the system-store commit; the queue trigger retries the batch.
var errInjectedCrash = errors.New("core: injected follower crash")

// followerHandler is Algorithm 1: for every request in the batch, lock the
// touched nodes (①), validate the operation (②), push the validated change
// to the leader queue (③), and commit it to the system store together with
// the lock release (④).
func (d *Deployment) followerHandler(inv *faas.Invocation) error {
	var traces []int64
	if d.costOn() {
		// The sandbox's GB-s charge amortizes over the whole batch; the
		// splitter is installed on exit so it covers exactly the requests
		// that ran (including a partial batch ended by a crash).
		defer func() { inv.Bill = d.invBill(traces, 0) }()
	}
	for _, m := range inv.Messages {
		req, err := decodeRequestWith(d.Cfg.codec, m.Body)
		if err != nil {
			continue // malformed message: drop, never poison the queue
		}
		ctx := inv.Ctx
		if d.costOn() {
			traces = append(traces, costReqTrace(req))
			ctx = d.billReq(ctx, req, 0)
		}
		if err := d.processRequest(ctx, req); err != nil {
			return err
		}
	}
	return nil
}

func (d *Deployment) processRequest(ctx cloud.Ctx, req Request) error {
	// Warm-state deduplication: queue retries redeliver whole batches, and
	// a request that already went through must not be applied twice.
	if req.Seq > 0 && d.lastSeq[req.Session] >= req.Seq {
		return nil
	}
	// Crash before any work: the whole batch is redelivered and replayed
	// from scratch (nothing was locked, pushed, or committed yet).
	if d.crashAt(obs.StageValidate, req.Session, req.Seq) {
		return errInjectedCrash
	}
	d.stageReq(req, obs.StageValidate)
	t0 := d.K.Now()
	var err error
	switch req.Op {
	case OpCreate:
		err = d.retryStale(ctx, req, d.followerCreate)
	case OpSetData:
		err = d.retryStale(ctx, req, d.followerSetData)
	case OpDelete:
		err = d.retryStale(ctx, req, func(ctx cloud.Ctx, r Request) error {
			_, derr := d.followerDelete(ctx, r)
			return derr
		})
	case OpDeregister:
		err = d.followerDeregister(ctx, req)
	case OpMulti:
		err = d.followerMulti(ctx, req)
	default:
		d.respondFailure(req, CodeSystemError)
	}
	d.recordPhase("follower.total", d.K.Now()-t0)
	if err == nil && req.Seq > 0 {
		d.lastSeq[req.Session] = req.Seq
	}
	return err
}

// staleRouteRetries bounds how often one request re-routes after losing a
// race with a reshard (each retry re-reads the map, so one transition
// costs at most one extra round per in-flight write).
const staleRouteRetries = 8

// retryStale runs one write op with dynamic-mode re-routing: a commit
// rejected by the shard-map generation guard re-validates and re-routes
// against the refreshed map, after waiting out any migration gating the
// path. Static deployments call the op directly.
func (d *Deployment) retryStale(ctx cloud.Ctx, req Request, fn func(cloud.Ctx, Request) error) error {
	if d.dyn == nil {
		return fn(ctx, req)
	}
	var err error
	for attempt := 0; attempt <= staleRouteRetries; attempt++ {
		if attempt > 0 {
			// The retry stage spans the migration-gate wait; the chain then
			// re-enters validation against the refreshed map.
			d.stageReq(req, obs.StageRetry)
		}
		d.awaitRoutable(ctx, req.Path)
		if attempt > 0 {
			d.stageReq(req, obs.StageValidate)
		}
		err = fn(ctx, req)
		if !errors.Is(err, errStaleRoute) {
			return err
		}
	}
	d.respondFailure(req, CodeSystemError)
	return nil
}

// respondFailure notifies the client directly from the follower; rejected
// requests never reach the leader (Algorithm 1, ②).
func (d *Deployment) respondFailure(req Request, code Code) {
	d.stageReq(req, obs.StageRespond)
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path}
	d.notify(req.Session, resp, resp.wireSize())
}

// lockNode acquires the timed lock and decodes the node's system state.
func (d *Deployment) lockNode(ctx cloud.Ctx, path string) (fksync.Lock, sysNode, error) {
	t0 := d.K.Now()
	lock, item, err := d.Locks.AcquireWait(ctx, nodeKey(path), 0)
	d.recordPhase("follower.lock", d.K.Now()-t0)
	return lock, decodeSysNode(item), err
}

func (d *Deployment) followerSetData(ctx cloud.Ctx, req Request) error {
	if len(req.Data) > d.Cfg.MaxNodeB {
		d.respondFailure(req, CodeTooLarge)
		return nil
	}
	lock, node, err := d.lockNodeClean(ctx, req.Path, 0)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	// ② Validate under the lock.
	if !node.Exists {
		d.unlockAll(ctx, lock)
		d.respondFailure(req, CodeNoNode)
		return nil
	}
	if req.Version != -1 && req.Version != node.Version {
		d.unlockAll(ctx, lock)
		d.respondFailure(req, CodeBadVersion)
		return nil
	}
	newVersion := node.Version + 1
	blob := znode.Marshal(node.toZNode(req.Path, req.Data), nil)
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, Op: OpSetData, Path: req.Path,
		NodeBlob: blob, LockTs: lock.Timestamp, Version: newVersion,
	}
	// ③ Push to the leader queue; the FIFO sequence number is the txid.
	r, err := d.pushToLeader(ctx, msg)
	if err != nil {
		d.unlockAll(ctx, lock)
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if d.crashAt(obs.StageLeaderQ, req.Session, req.Seq) {
		return errInjectedCrash
	}
	// ④ Commit and unlock in one conditional write (joined with the
	// shard-map generation guard on a dynamic deployment).
	ups := []kv.Update{
		kv.Set{Name: attrVersion, V: kv.N(int64(newVersion))},
		kv.Set{Name: attrMzxid, V: kv.N(r.txid)},
		kv.ListAppend{Name: attrPending, Vals: []int64{r.txid}},
	}
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	cctx := d.billSpan(ctx, costReqTrace(req), sp, r.shard, "")
	if guard := d.dynGuard(r.shard, r.gen); guard != nil {
		err = d.Locks.CommitUnlockTxGuard(cctx, []fksync.TxPart{{Lock: lock, Updates: ups}}, guard)
	} else {
		_, err = d.Locks.CommitUnlock(cctx, lock, ups)
	}
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	if err != nil {
		if d.staleRoutedCommit(ctx, r.shard, r.gen) {
			// Fenced by a reshard: nothing was written, the locks are
			// still ours — release them and re-route. The pushed message
			// strands in the old queue; its leader recognizes the
			// superseded generation and drops it silently.
			d.unlockAll(ctx, lock)
			return errStaleRoute
		}
		// Lost the lease: the leader's TryCommit may still save the
		// transaction; nothing more to do here.
		return nil
	}
	return nil
}

func (d *Deployment) followerCreate(ctx cloud.Ctx, req Request) error {
	if len(req.Data) > d.Cfg.MaxNodeB {
		d.respondFailure(req, CodeTooLarge)
		return nil
	}
	if req.Path == znode.Root {
		d.respondFailure(req, CodeNodeExists)
		return nil
	}
	parentPath := znode.Parent(req.Path)
	// Lock parent first, node second: a uniform top-down order prevents
	// deadlocks between concurrent creates/deletes.
	parentLock, parent, err := d.lockNodeClean(ctx, parentPath, 0)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if !parent.Exists {
		d.unlockAll(ctx, parentLock)
		d.respondFailure(req, CodeNoNode)
		return nil
	}
	if parent.EphOwner != "" {
		d.unlockAll(ctx, parentLock)
		d.respondFailure(req, CodeNoChildrenEph)
		return nil
	}
	// Sequential nodes take their suffix from the parent's counter, read
	// under the parent lock.
	finalPath := req.Path
	if req.Flags&znode.FlagSequential != 0 {
		finalPath = znode.SequentialName(req.Path, parent.SeqCtr)
	}
	name := znode.Base(finalPath)

	nodeLock, node, err := d.lockNodeClean(ctx, finalPath, 0)
	if err != nil {
		d.unlockAll(ctx, parentLock)
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if node.Exists {
		d.unlockAll(ctx, nodeLock, parentLock)
		d.respondFailure(req, CodeNodeExists)
		return nil
	}

	owner := ""
	if req.Flags&znode.FlagEphemeral != 0 {
		owner = req.Session
		// Track ephemeral ownership on the session record (used by the
		// heartbeat eviction path) BEFORE the push: once the message is in
		// the leader queue the node can commit even if this sandbox dies
		// (TryCommit), and an entry recorded only after a successful
		// commit would then be lost forever — leaking the node past its
		// session's death. The early entry is merely stale when the
		// create fails or is replayed: eviction's deletes are idempotent
		// and a live session keeps answering heartbeats, so a stale entry
		// costs one ping. (Replays short-circuit on node-exists above and
		// never reach here twice for a committed create.)
		if _, err := d.System.Update(ctx, sessionKey(req.Session),
			[]kv.Update{kv.StrListAppend{Name: attrSessionEph, Vals: []string{finalPath}}}, nil); err != nil {
			d.unlockAll(ctx, nodeLock, parentLock)
			d.respondFailure(req, CodeSystemError)
			return nil
		}
	}
	newNode := &znode.Node{
		Path: finalPath,
		Data: req.Data,
		Stat: znode.Stat{Ephemeral: owner != "", Owner: owner},
	}
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, Op: OpCreate, Path: finalPath,
		NodeBlob:   znode.Marshal(newNode, nil),
		ParentPath: parentPath, ChildAdd: name,
		LockTs: nodeLock.Timestamp, ParentLockTs: parentLock.Timestamp,
		Cversion: parent.Cversion + 1, EphOwner: owner,
	}
	r, err := d.pushToLeader(ctx, msg)
	if err != nil {
		d.unlockAll(ctx, nodeLock, parentLock)
		code := CodeSystemError
		if errors.Is(err, errMsgTooLarge) {
			code = CodeTooLarge
		}
		d.respondFailure(req, code)
		return nil
	}
	txid := r.txid
	if d.crashAt(obs.StageLeaderQ, req.Session, req.Seq) {
		return errInjectedCrash
	}
	// ④ A multi-node commit: the new node and its parent fail or succeed
	// together (Section 3.1).
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	err = d.Locks.CommitUnlockTxGuard(d.billSpan(ctx, costReqTrace(req), sp, r.shard, ""), []fksync.TxPart{
		{Lock: nodeLock, Updates: createNodeUpdates(txid, owner)},
		{Lock: parentLock, Updates: createParentUpdates(name, txid)},
	}, d.dynGuard(r.shard, r.gen))
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	if err != nil {
		if d.staleRoutedCommit(ctx, r.shard, r.gen) {
			d.unlockAll(ctx, nodeLock, parentLock)
			return errStaleRoute
		}
		return nil // lease lost: leader TryCommit may recover
	}
	return nil
}

// createNodeUpdates is the follower's node-item commit; the leader's
// TryCommit reconstructs exactly the same updates.
func createNodeUpdates(txid int64, owner string) []kv.Update {
	return append(createNodeBase(txid, owner),
		kv.ListAppend{Name: attrPending, Vals: []int64{txid}})
}

// createNodeBase is the create commit without the pending append — the
// transaction path appends the pending entry once per node, even when
// several sub-ops touch it.
func createNodeBase(txid int64, owner string) []kv.Update {
	ups := []kv.Update{
		kv.Set{Name: attrExists, V: kv.N(1)},
		kv.Set{Name: attrVersion, V: kv.N(0)},
		kv.Set{Name: attrCversion, V: kv.N(0)},
		kv.Set{Name: attrCzxid, V: kv.N(txid)},
		kv.Set{Name: attrMzxid, V: kv.N(txid)},
		kv.Set{Name: attrPzxid, V: kv.N(txid)},
		kv.Set{Name: attrChildren, V: kv.StrList()},
	}
	if owner != "" {
		ups = append(ups, kv.Set{Name: attrEph, V: kv.S(owner)})
	}
	return ups
}

func createParentUpdates(name string, txid int64) []kv.Update {
	return []kv.Update{
		kv.StrListAppend{Name: attrChildren, Vals: []string{name}},
		kv.Add{Name: attrCversion, Delta: 1},
		kv.Add{Name: attrSeq, Delta: 1},
		kv.Set{Name: attrPzxid, V: kv.N(txid)},
	}
}

// followerDelete validates and commits one deletion. It returns the shard
// the deletion was routed to (the session-deregistration barrier must put
// its ack behind the deletion in exactly that queue) along with the usual
// handler error.
func (d *Deployment) followerDelete(ctx cloud.Ctx, req Request) (int, error) {
	shard := d.RouteShard(req.Path)
	if req.Path == znode.Root {
		d.respondFailure(req, CodeSystemError)
		return shard, nil
	}
	parentPath := znode.Parent(req.Path)
	parentLock, parent, err := d.lockNodeClean(ctx, parentPath, 0)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return shard, nil
	}
	nodeLock, node, err := d.lockNodeClean(ctx, req.Path, 0)
	if err != nil {
		d.unlockAll(ctx, parentLock)
		d.respondFailure(req, CodeSystemError)
		return shard, nil
	}
	code := CodeOK
	switch {
	case !node.Exists:
		code = CodeNoNode
	case req.Version != -1 && req.Version != node.Version:
		code = CodeBadVersion
	case len(node.Children) > 0:
		code = CodeNotEmpty
	case !parent.Exists || !parent.hasChild(znode.Base(req.Path)):
		code = CodeSystemError
	}
	if code != CodeOK {
		d.unlockAll(ctx, nodeLock, parentLock)
		d.respondFailure(req, code)
		return shard, nil
	}
	name := znode.Base(req.Path)
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, Op: OpDelete, Path: req.Path,
		ParentPath: parentPath, ChildDel: name,
		LockTs: nodeLock.Timestamp, ParentLockTs: parentLock.Timestamp,
		Cversion: parent.Cversion + 1, EphOwner: node.EphOwner,
	}
	r, err := d.pushToLeader(ctx, msg)
	if err != nil {
		d.unlockAll(ctx, nodeLock, parentLock)
		d.respondFailure(req, CodeSystemError)
		return r.shard, nil
	}
	txid := r.txid
	if d.crashAt(obs.StageLeaderQ, req.Session, req.Seq) {
		return r.shard, errInjectedCrash
	}
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	err = d.Locks.CommitUnlockTxGuard(d.billSpan(ctx, costReqTrace(req), sp, r.shard, ""), []fksync.TxPart{
		{Lock: nodeLock, Updates: deleteNodeUpdates(txid)},
		{Lock: parentLock, Updates: deleteParentUpdates(name, txid)},
	}, d.dynGuard(r.shard, r.gen))
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	if err != nil {
		if d.staleRoutedCommit(ctx, r.shard, r.gen) {
			d.unlockAll(ctx, nodeLock, parentLock)
			return r.shard, errStaleRoute
		}
		return r.shard, nil
	}
	if node.EphOwner != "" {
		_, _ = d.System.Update(ctx, sessionKey(node.EphOwner),
			[]kv.Update{kv.StrListRemove{Name: attrSessionEph, Vals: []string{req.Path}}}, nil)
	}
	return r.shard, nil
}

// deleteNodeUpdates tombstones the node (exists=0) while keeping the item
// so the leader can track the pending transaction; the leader garbage
// collects it after the pop.
func deleteNodeUpdates(txid int64) []kv.Update {
	return append(deleteNodeBase(txid),
		kv.ListAppend{Name: attrPending, Vals: []int64{txid}})
}

// deleteNodeBase is the delete commit without the pending append (see
// createNodeBase).
func deleteNodeBase(txid int64) []kv.Update {
	return []kv.Update{
		kv.Set{Name: attrExists, V: kv.N(0)},
		kv.Set{Name: attrMzxid, V: kv.N(txid)},
		kv.Remove{Name: attrEph},
	}
}

func deleteParentUpdates(name string, txid int64) []kv.Update {
	return []kv.Update{
		kv.StrListRemove{Name: attrChildren, Vals: []string{name}},
		kv.Add{Name: attrCversion, Delta: 1},
		kv.Set{Name: attrPzxid, V: kv.N(txid)},
	}
}

// followerDeregister closes a session: every ephemeral node it owns is
// deleted through the normal write pipeline, then the session record is
// removed (Section 3.6).
func (d *Deployment) followerDeregister(ctx cloud.Ctx, req Request) error {
	item, ok := d.System.Get(ctx, sessionKey(req.Session), true)
	if !ok {
		// Already gone: idempotent; answer directly.
		resp := Response{Session: req.Session, Seq: req.Seq, Code: CodeOK}
		d.notify(req.Session, resp, resp.wireSize())
		return nil
	}
	eph := append([]string(nil), item[attrSessionEph].SL...)
	touched := map[int]bool{}
	for _, path := range eph {
		// Seq -1: these deletions produce no client-visible responses; the
		// deregistration ack below covers them. The ack must ride the
		// queue each deletion actually committed to, so the shard comes
		// back from the delete itself (routing may change mid-loop on a
		// dynamic deployment).
		del := Request{Session: req.Session, Seq: -1, Op: OpDelete, Path: path, Version: -1}
		shard, err := d.followerDelete(ctx, del)
		for attempt := 0; errors.Is(err, errStaleRoute) && attempt < staleRouteRetries; attempt++ {
			d.awaitRoutable(ctx, path)
			shard, err = d.followerDelete(ctx, del)
		}
		if err != nil {
			return err
		}
		touched[shard] = true
	}
	if err := d.System.Delete(ctx, sessionKey(req.Session), nil); err != nil {
		return fmt.Errorf("core: deregister: %w", err)
	}
	if len(touched) == 0 {
		touched[0] = true // no ephemerals: any single shard may ack
	}
	// Acknowledge through the leader queue of every shard that received a
	// deletion: each shard's FIFO order puts the ack behind those
	// deletions, and the shard completing the ack set answers the client —
	// so the client sees the ack only after every deletion has been
	// distributed.
	// Multi-shard fanouts need an id: an atomic system-store counter
	// (followers are stateless, so an in-memory counter would repeat after
	// a restart and let stale markers of an abandoned fanout satisfy a new
	// barrier). A fanout abandoned by a push failure leaves its barrier
	// item behind; later fanouts ignore the stale markers (different id),
	// so the only cost is bounded system-store garbage on an
	// unreachable-in-practice path (acks are far below the queue limit).
	var deregID int64
	if len(touched) > 1 {
		it, err := d.System.Update(ctx, deregSeqKey,
			[]kv.Update{kv.Add{Name: attrDeregSeq, Delta: 1}}, nil)
		if err != nil {
			return fmt.Errorf("core: deregister id: %w", err)
		}
		deregID = it[attrDeregSeq].Num
	}
	for s := 0; s < d.NumShards(); s++ { // in shard order: determinism
		if !touched[s] {
			continue
		}
		ack := leaderMsg{
			Session: req.Session, Seq: req.Seq, Op: OpDeregister,
			Shard: s, Fanout: len(touched), DeregID: deregID,
		}
		if _, err := d.pushToShard(ctx, ack); err != nil {
			return err
		}
	}
	return nil
}

var errMsgTooLarge = errors.New("core: leader message exceeds queue limit")

// routed is the outcome of a leader-queue push: the derived transaction
// id, the shard the message landed on, and — on a dynamic deployment —
// the map generation it was routed with, which the follower's commit must
// pin (dynGuard).
type routed struct {
	txid  int64
	shard int
	gen   int64
}

// pushToLeader routes the validated change to its subtree's ordered queue
// (③) and returns the transaction id. With one shard this is the paper's
// single global FIFO queue and its total order of writes; with more, the
// order is total per shard, which suffices because no operation spans
// subtrees. A dynamic deployment routes through the shard map and stamps
// the message with the routing generation and the shard's txid base.
func (d *Deployment) pushToLeader(ctx cloud.Ctx, msg leaderMsg) (routed, error) {
	if d.dyn != nil {
		m := d.mapView()
		msg.Shard = m.ShardFor(msg.Path)
		dynStamp(&msg, m)
		if d.Cfg.AutoShard.Enabled {
			// Only the auto-shard monitor reads (and resets) the
			// per-segment counters; without it they would just grow.
			d.dyn.hot[shardmap.TopSegment(msg.Path)]++
		}
	} else {
		msg.Shard = ShardOf(msg.Path, d.NumShards())
	}
	return d.pushToShard(ctx, msg)
}

// pushToShard sends the message to the shard already set on it.
func (d *Deployment) pushToShard(ctx cloud.Ctx, msg leaderMsg) (routed, error) {
	t0 := d.K.Now()
	// Re-sink the bill so the queue-delivery cell is refined by the routed
	// shard (the caller's sink knows the trace but not the route).
	ctx = d.billMsg(ctx, msg)
	e := wire.NewEncoder()
	seqNo, err := d.LeaderQs[msg.Shard].Send(ctx, msg.Session, msg.encodeWith(d.Cfg.codec, e))
	e.Release()
	d.recordPhase("follower.push", d.K.Now()-t0)
	if errors.Is(err, queue.ErrTooLarge) {
		return routed{shard: msg.Shard, gen: dynGen(msg)}, errMsgTooLarge
	}
	if err == nil {
		d.stageMsg(msg, obs.StageLeaderQ)
	}
	if err == nil && msg.Seq > 0 && msg.Op != OpDeregister && msg.Op != OpTxnCommit {
		// Once pushed, the leader will complete (or TryCommit) this
		// request even if we crash right here — mark it processed so a
		// queue retry does not apply it a second time. Deregister acks are
		// excluded: their fanout must complete as a whole before the
		// request counts as processed (processRequest marks it then).
		// Cross-shard commit messages are excluded for the same reason: a
		// coordinator that crashes between shard pushes must be redriven
		// by redelivery until the whole transaction is applied.
		d.lastSeq[msg.Session] = msg.Seq
	}
	return routed{txid: d.msgTxid(seqNo, msg), shard: msg.Shard, gen: dynGen(msg)}, err
}

func (d *Deployment) unlockAll(ctx cloud.Ctx, locks ...fksync.Lock) {
	for _, l := range locks {
		_ = d.Locks.Release(ctx, l)
	}
}

// crashAt asks the kernel's fault hook (package chaos, or a crash test's
// hook) whether the function should die at the labeled pipeline stage
// while processing (session, seq); it is the only crash injection point.
// Without a hook this is a nil check and nothing else.
func (d *Deployment) crashAt(stage, session string, seq int64) bool {
	h := d.K.Fault()
	return h != nil && h.Crash(stage, session, seq)
}
