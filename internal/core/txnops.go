package core

// Cross-shard multi() transactions (package txn): the coordinator rides in
// the follower function handling the OpMulti request, so it inherits the
// session's FIFO position and the queue's redelivery-based retry.
//
// Single-shard multis take a fast path through the existing pipeline: the
// coordinator locks every touched item (global lexicographic order),
// validates the ops against a speculative state, pushes ONE OpMulti
// message to the owning shard's queue, and commits all items in one
// multi-item conditional transaction — atomicity falls out of the
// system-store transaction plus the shard's serialized leader.
//
// Multis spanning shards run a two-phase commit:
//
//	prepare   lock every item, validate, then convert each shard group's
//	          timed locks into intent attributes (never lease-expire) and
//	          vote through the durable record's storage-backed barrier —
//	          the deregister-fanout ack pattern.
//	decide    one conditional status transition (preparing→committed with
//	          the resolved ops, or →aborted) makes the outcome durable; a
//	          crashed coordinator is resumed by queue redelivery from the
//	          record.
//	commit    one OpTxnCommit message per participant shard orders the
//	          transaction inside that shard's pipeline (txid minting,
//	          watch claiming, epoch entry, pending pops), guarded by
//	          intent-conditional idempotent system-store writes.
//	apply     after every shard leader posts its ready marker, the
//	          coordinator distributes ALL user-store writes in one atomic
//	          batch (AtomicApplier) — or in op order where the backend
//	          has no transactions — publishes one coalesced cache
//	          invalidation record first, and only then clears the
//	          intents, answers the client, and releases the deferred
//	          watch deliveries.
//
// Intents double as the isolation fence: any conflicting writer's
// follower blocks in lockNodeClean until the transaction's effects are
// readable, so no write can slip between a shard's commit and the atomic
// apply, and no reader ever observes uncommitted intents (nothing touches
// the user store before the apply).

import (
	"errors"
	"slices"
	"sort"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// errTxnBarrier aborts the invocation so queue redelivery re-drives the
// committed transaction from its durable record.
var errTxnBarrier = errors.New("core: transaction barrier timed out; redelivery resumes")

// txnIntentAttempts bounds how long a writer waits on a foreign intent.
const txnIntentAttempts = 60

// lockNodeClean acquires the node's timed lock and resolves any
// transaction intent found on the item. A stale intent — its transaction
// already aborted, applied, or collected — is cleared inline under the
// held lock (cooperative recovery of a crashed coordinator's leftovers).
// A live intent (preparing or committed) owns the node: the lock is
// released and the acquisition retried, so conflicting writers serialize
// behind the transaction's apply. selfTxn tolerates the caller's own
// intent. With no intent present (every non-transactional deployment)
// the path is exactly lockNode: zero extra operations.
func (d *Deployment) lockNodeClean(ctx cloud.Ctx, path string, selfTxn int64) (fksync.Lock, sysNode, error) {
	for attempt := 0; attempt < txnIntentAttempts; attempt++ {
		lock, node, err := d.lockNode(ctx, path)
		if err != nil || node.TxnIntent == 0 || node.TxnIntent == selfTxn {
			return lock, node, err
		}
		rec, found := d.Txns.Lookup(ctx, node.TxnIntent)
		if !found || rec.Status == txn.StatusAborted || rec.Status == txn.StatusApplied {
			it, cerr := d.System.Update(ctx, nodeKey(path),
				[]kv.Update{kv.Remove{Name: attrTxnIntent}, kv.Remove{Name: attrTxnCommitMark}},
				kv.Eq{Name: fksync.LockAttr, V: kv.N(lock.Timestamp)})
			if cerr == nil {
				return lock, decodeSysNode(it), nil
			}
			// Lost our lease while clearing; take the lock again.
			continue
		}
		_ = d.Locks.Release(ctx, lock)
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return fksync.Lock{}, sysNode{}, fksync.ErrLockHeld
}

// specNode is the coordinator's speculative view of one locked item, so
// later ops of the same multi validate against the earlier ops' effects
// (ZooKeeper validates multi ops sequentially against the evolving state).
type specNode struct {
	exists   bool
	version  int32
	cversion int32
	children map[string]bool
	ephOwner string
	seqCtr   int64
}

func specFrom(n sysNode) *specNode {
	children := map[string]bool{}
	for _, c := range n.Children {
		children[c] = true
	}
	return &specNode{
		exists: n.Exists, version: n.Version, cversion: n.Cversion,
		children: children, ephOwner: n.EphOwner, seqCtr: n.SeqCtr,
	}
}

func (s *specNode) childCount() int {
	n := 0
	for _, present := range s.children {
		if present {
			n++
		}
	}
	return n
}

// multiItem is one locked system item a transaction touches.
type multiItem struct {
	path   string
	lock   fksync.Lock
	shard  int  // owning shard group (the first-touching op's shard)
	intent bool // 2PC: the timed lock was converted into an intent
}

// multiPlan is the coordinator's prepared state: every touched item
// locked, every op validated and resolved. route is the plan's routing
// snapshot (one map view for the whole transaction); mv is the snapshot's
// map on a dynamic deployment (nil otherwise), whose per-shard
// generations guard the commit.
type multiPlan struct {
	resolved []txn.ResolvedOp
	items    map[string]*multiItem
	order    []string // lock acquisition order
	specs    map[string]*specNode
	route    func(string) int
	mv       *shardmap.Map
}

func newMultiPlan(d *Deployment) *multiPlan {
	p := &multiPlan{items: map[string]*multiItem{}, specs: map[string]*specNode{}}
	p.route, p.mv = d.routeFn()
	return p
}

// acquire locks one item (idempotently) and seeds its speculative state.
func (p *multiPlan) acquire(d *Deployment, ctx cloud.Ctx, path string, shard int) error {
	if _, held := p.items[path]; held {
		return nil
	}
	lock, node, err := d.lockNodeClean(ctx, path, 0)
	if err != nil {
		return err
	}
	p.items[path] = &multiItem{path: path, lock: lock, shard: shard}
	p.order = append(p.order, path)
	p.specs[path] = specFrom(node)
	return nil
}

// unlock releases every still-held timed lock (validation failure paths).
func (p *multiPlan) unlock(d *Deployment, ctx cloud.Ctx) {
	for _, path := range p.order {
		it := p.items[path]
		if !it.intent {
			_ = d.Locks.Release(ctx, it.lock)
		}
	}
}

// shardGroup is the locked items one shard owns in a multi.
type shardGroup struct {
	shard int
	items []*multiItem
}

// itemsByShard groups the locked items by owning shard for the parallel
// intent/vote phase, in first-touch order along p.order: the prepare
// processes spawn in this order, so it must not depend on map order.
func (p *multiPlan) itemsByShard() []shardGroup {
	var groups []shardGroup
	for _, path := range p.order {
		it := p.items[path]
		i := slices.IndexFunc(groups, func(g shardGroup) bool { return g.shard == it.shard })
		if i < 0 {
			i = len(groups)
			groups = append(groups, shardGroup{shard: it.shard})
		}
		groups[i].items = append(groups[i].items, it)
	}
	return groups
}

// lockTs returns the lock timestamps aligned with the acquisition order
// (the fast-path message carries them for the leader's commit replay).
func (p *multiPlan) lockTs() []int64 {
	ts := make([]int64, len(p.order))
	for i, path := range p.order {
		ts[i] = p.items[path].lock.Timestamp
	}
	return ts
}

// prepareMulti locks every touched item in global lexicographic order and
// validates the ops speculatively. On success the locks are still held.
// On validation failure every lock is released and the failing op's index
// and code are returned (failIdx >= 0). err is infrastructure-only.
func (d *Deployment) prepareMulti(ctx cloud.Ctx, req Request, reqOps []txn.Op) (plan *multiPlan, failIdx int, code Code, err error) {
	plan = newMultiPlan(d)
	// Statically known paths, each tagged with its first-touching op's
	// shard (parents are colocated with children; only the shared root can
	// be claimed by any op's shard).
	shardOf := map[string]int{}
	note := func(p string, s int) {
		if _, ok := shardOf[p]; !ok {
			shardOf[p] = s
		}
	}
	for _, op := range reqOps {
		s := plan.route(op.Path)
		switch op.Type {
		case txn.OpCreate:
			if op.Path == znode.Root {
				continue // validation will reject it
			}
			note(znode.Parent(op.Path), s)
			if op.Flags&znode.FlagSequential == 0 {
				note(op.Path, s)
			}
		case txn.OpDelete:
			if op.Path == znode.Root {
				continue
			}
			note(znode.Parent(op.Path), s)
			note(op.Path, s)
		default:
			note(op.Path, s)
		}
	}
	static := make([]string, 0, len(shardOf))
	for p := range shardOf {
		static = append(static, p)
	}
	// Lexicographic order is deadlock-free against single ops and other
	// multis: a parent is a strict prefix of its children, so the global
	// order refines the pipeline's parent-first rule. (Sequential-node
	// paths resolve during validation and may lock out of order; the timed
	// lease bounds the rare resulting contention.)
	sort.Strings(static)
	t0 := d.K.Now()
	for _, p := range static {
		if err := plan.acquire(d, ctx, p, shardOf[p]); err != nil {
			plan.unlock(d, ctx)
			return nil, -1, CodeSystemError, err
		}
	}
	for i, op := range reqOps {
		rop, code, err := d.validateMultiOp(ctx, plan, op, req.Session)
		if err != nil {
			plan.unlock(d, ctx)
			return nil, -1, CodeSystemError, err
		}
		if code != CodeOK {
			plan.unlock(d, ctx)
			return nil, i, code, nil
		}
		plan.resolved = append(plan.resolved, rop)
	}
	d.recordPhase("txn.prepare", d.K.Now()-t0)
	return plan, -1, CodeOK, nil
}

// validateMultiOp mirrors the follower's per-op validation against the
// plan's speculative state and resolves the op on success.
func (d *Deployment) validateMultiOp(ctx cloud.Ctx, plan *multiPlan, op txn.Op, session string) (txn.ResolvedOp, Code, error) {
	switch op.Type {
	case txn.OpSetData:
		sp := plan.specs[op.Path]
		if sp == nil || !sp.exists {
			return txn.ResolvedOp{}, CodeNoNode, nil
		}
		if op.Version != -1 && op.Version != sp.version {
			return txn.ResolvedOp{}, CodeBadVersion, nil
		}
		sp.version++
		return txn.ResolvedOp{
			Type: op.Type, Path: op.Path, Data: op.Data, Version: sp.version,
			EphOwner: sp.ephOwner, Shard: plan.route(op.Path),
		}, CodeOK, nil
	case txn.OpCheck:
		sp := plan.specs[op.Path]
		if sp == nil || !sp.exists {
			return txn.ResolvedOp{}, CodeNoNode, nil
		}
		if op.Version != -1 && op.Version != sp.version {
			return txn.ResolvedOp{}, CodeBadVersion, nil
		}
		return txn.ResolvedOp{Type: op.Type, Path: op.Path, Shard: plan.route(op.Path)}, CodeOK, nil
	case txn.OpCreate:
		if op.Path == znode.Root {
			return txn.ResolvedOp{}, CodeNodeExists, nil
		}
		parentPath := znode.Parent(op.Path)
		pp := plan.specs[parentPath]
		if pp == nil || !pp.exists {
			return txn.ResolvedOp{}, CodeNoNode, nil
		}
		if pp.ephOwner != "" {
			return txn.ResolvedOp{}, CodeNoChildrenEph, nil
		}
		finalPath := op.Path
		if op.Flags&znode.FlagSequential != 0 {
			finalPath = znode.SequentialName(op.Path, pp.seqCtr)
		}
		shard := plan.route(finalPath)
		if err := plan.acquire(d, ctx, finalPath, shard); err != nil {
			return txn.ResolvedOp{}, CodeSystemError, err
		}
		sp := plan.specs[finalPath]
		if sp.exists {
			return txn.ResolvedOp{}, CodeNodeExists, nil
		}
		owner := ""
		if op.Flags&znode.FlagEphemeral != 0 {
			owner = session
		}
		name := znode.Base(finalPath)
		pp.seqCtr++
		pp.cversion++
		pp.children[name] = true
		sp.exists, sp.version, sp.ephOwner = true, 0, owner
		sp.children = map[string]bool{}
		return txn.ResolvedOp{
			Type: op.Type, Path: finalPath, ParentPath: parentPath, Data: op.Data,
			Version: 0, Cversion: pp.cversion, EphOwner: owner, ChildAdd: name, Shard: shard,
		}, CodeOK, nil
	case txn.OpDelete:
		if op.Path == znode.Root {
			return txn.ResolvedOp{}, CodeSystemError, nil
		}
		parentPath := znode.Parent(op.Path)
		pp := plan.specs[parentPath]
		sp := plan.specs[op.Path]
		if sp == nil || !sp.exists {
			return txn.ResolvedOp{}, CodeNoNode, nil
		}
		if op.Version != -1 && op.Version != sp.version {
			return txn.ResolvedOp{}, CodeBadVersion, nil
		}
		if sp.childCount() > 0 {
			return txn.ResolvedOp{}, CodeNotEmpty, nil
		}
		name := znode.Base(op.Path)
		if pp == nil || !pp.exists || !pp.children[name] {
			return txn.ResolvedOp{}, CodeSystemError, nil
		}
		owner := sp.ephOwner
		sp.exists = false
		pp.cversion++
		pp.children[name] = false
		return txn.ResolvedOp{
			Type: op.Type, Path: op.Path, ParentPath: parentPath,
			Cversion: pp.cversion, EphOwner: owner, ChildDel: name, Shard: plan.route(op.Path),
		}, CodeOK, nil
	}
	return txn.ResolvedOp{}, CodeSystemError, nil
}

// multiUpdates rebuilds every touched item's system-store updates for a
// set of resolved ops committing at txid: per-op updates in op order, one
// pending append per target node (even when several sub-ops touch it).
// touched lists every item including check-only ones (which get no
// updates); targets are the nodes whose pending list carries the
// transaction. skipRoot omits the shared root item — in a cross-shard
// commit its updates are coordinator-owned (txnRootCommit), because ops
// from several shards may splice it and per-shard conditional commits
// would double-apply.
func multiUpdates(ops []txn.ResolvedOp, txid int64, skipRoot bool) (touched []string, ups map[string][]kv.Update, targets []string) {
	ups = map[string][]kv.Update{}
	seen := map[string]bool{}
	isTarget := map[string]bool{}
	touch := func(p string) bool {
		if skipRoot && p == znode.Root {
			return false
		}
		if !seen[p] {
			seen[p] = true
			touched = append(touched, p)
		}
		return true
	}
	for _, op := range ops {
		switch op.Type {
		case txn.OpCheck:
			touch(op.Path)
		case txn.OpCreate:
			if touch(op.Path) {
				ups[op.Path] = append(ups[op.Path], createNodeBase(txid, op.EphOwner)...)
				isTarget[op.Path] = true
			}
			if touch(op.ParentPath) {
				ups[op.ParentPath] = append(ups[op.ParentPath], createParentUpdates(op.ChildAdd, txid)...)
			}
		case txn.OpSetData:
			if touch(op.Path) {
				ups[op.Path] = append(ups[op.Path],
					kv.Set{Name: attrVersion, V: kv.N(int64(op.Version))},
					kv.Set{Name: attrMzxid, V: kv.N(txid)})
				isTarget[op.Path] = true
			}
		case txn.OpDelete:
			if touch(op.Path) {
				ups[op.Path] = append(ups[op.Path], deleteNodeBase(txid)...)
				isTarget[op.Path] = true
			}
			if touch(op.ParentPath) {
				ups[op.ParentPath] = append(ups[op.ParentPath], deleteParentUpdates(op.ChildDel, txid)...)
			}
		}
	}
	for _, p := range touched {
		if isTarget[p] {
			ups[p] = append(ups[p], kv.ListAppend{Name: attrPending, Vals: []int64{txid}})
			targets = append(targets, p)
		}
	}
	return touched, ups, targets
}

// --- shared helpers over resolved op lists ---

func effectfulShards(ops []txn.ResolvedOp) []int {
	seen := map[int]bool{}
	var shards []int
	for _, op := range ops {
		if op.Effectful() && !seen[op.Shard] {
			seen[op.Shard] = true
			shards = append(shards, op.Shard)
		}
	}
	sort.Ints(shards)
	return shards
}

func resolvedOfShard(ops []txn.ResolvedOp, shard int) []txn.ResolvedOp {
	var out []txn.ResolvedOp
	for _, op := range ops {
		if op.Shard == shard {
			out = append(out, op)
		}
	}
	return out
}

// anchorPath names a shard message's Path field: the shard's first
// effectful op's path (used for routing and client-visible echoes).
func anchorPath(ops []txn.ResolvedOp, shard int) string {
	for _, op := range ops {
		if op.Shard == shard && op.Effectful() {
			return op.Path
		}
	}
	return znode.Root
}

// txnTargets lists the effectful ops' node paths in first-touch order.
func txnTargets(ops []txn.ResolvedOp) []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range ops {
		if op.Effectful() && !seen[op.Path] {
			seen[op.Path] = true
			out = append(out, op.Path)
		}
	}
	return out
}

// allItemPaths lists every system item the transaction touched (targets,
// parents, and check paths) for intent cleanup.
func allItemPaths(ops []txn.ResolvedOp) []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, op := range ops {
		add(op.Path)
		add(op.ParentPath)
	}
	return out
}

// staticPaths lists the statically known item paths of a requested op
// list (recovery cleanup; sequential-resolved paths self-heal through
// lockNodeClean's stale-intent clearing).
func staticPaths(ops []txn.Op) []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, op := range ops {
		add(op.Path)
		if (op.Type == txn.OpCreate || op.Type == txn.OpDelete) && op.Path != znode.Root {
			add(znode.Parent(op.Path))
		}
	}
	return out
}

// opMsgView adapts one resolved sub-op to the leaderMsg shape the watch
// query understands.
func opMsgView(op txn.ResolvedOp) leaderMsg {
	m := leaderMsg{Path: op.Path, ParentPath: op.ParentPath}
	switch op.Type {
	case txn.OpCreate:
		m.Op = OpCreate
	case txn.OpDelete:
		m.Op = OpDelete
	default:
		m.Op = OpSetData
	}
	return m
}

// txnCommitCond guards every per-item commit write: the intent must still
// be ours and the commit mark not yet set, making coordinator and leader
// replays race-safe and idempotent.
func txnCommitCond(id int64) kv.Cond {
	return kv.And{
		kv.Eq{Name: attrTxnIntent, V: kv.N(id)},
		kv.Not{C: kv.Eq{Name: attrTxnCommitMark, V: kv.N(id)}},
	}
}

// clearTxnMarks releases the transaction's intents (and commit marks) on
// the given items; conditional on ownership, so it is safe to call on
// paths that never received one.
func (d *Deployment) clearTxnMarks(ctx cloud.Ctx, id int64, paths []string) {
	for _, p := range paths {
		_, _ = d.System.Update(ctx, nodeKey(p),
			[]kv.Update{kv.Remove{Name: attrTxnIntent}, kv.Remove{Name: attrTxnCommitMark}},
			kv.Eq{Name: attrTxnIntent, V: kv.N(id)})
	}
}

// applyEphRecords updates the session records' ephemeral lists after a
// commit (outside the atomic transaction, like the single-op pipeline: a
// stale entry is harmless, deletes are idempotent).
func (d *Deployment) applyEphRecords(ctx cloud.Ctx, resolved []txn.ResolvedOp) {
	for _, op := range resolved {
		if op.EphOwner == "" {
			continue
		}
		switch op.Type {
		case txn.OpCreate:
			_, _ = d.System.Update(ctx, sessionKey(op.EphOwner),
				[]kv.Update{kv.StrListAppend{Name: attrSessionEph, Vals: []string{op.Path}}}, nil)
		case txn.OpDelete:
			_, _ = d.System.Update(ctx, sessionKey(op.EphOwner),
				[]kv.Update{kv.StrListRemove{Name: attrSessionEph, Vals: []string{op.Path}}}, nil)
		}
	}
}

// planWentStale reports whether any of a plan's shard groups routed with
// a since-superseded map generation (the transaction must re-route).
func (d *Deployment) planWentStale(ctx cloud.Ctx, plan *multiPlan) bool {
	if plan.mv == nil {
		return false
	}
	cur := d.refreshMap(ctx)
	for _, g := range plan.itemsByShard() {
		if cur.GenOf(g.shard) != plan.mv.GenOf(g.shard) {
			return true
		}
	}
	return false
}

// respondMultiAbort answers a multi() that failed validation: the failing
// op carries its own code, the siblings report the rollback. failIdx < 0
// marks a recovery answer where the failing op is no longer known.
func (d *Deployment) respondMultiAbort(req Request, reqOps []txn.Op, failIdx int, code Code) {
	d.stageReq(req, obs.StageRespond)
	results := make([]txn.Result, len(reqOps))
	for i, op := range reqOps {
		r := txn.Result{Type: op.Type, Path: op.Path, Code: txn.CodeAborted}
		if i == failIdx {
			r.Code = string(code)
		}
		results[i] = r
	}
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path, MultiResults: results}
	d.notify(req.Session, resp, resp.wireSize())
}

// notifyMulti answers a committed multi() with its per-op results.
func (d *Deployment) notifyMulti(req Request, results []txn.Result, commits map[int]int64) {
	d.stageReq(req, obs.StageRespond)
	var maxTxid int64
	for _, t := range commits {
		if t > maxTxid {
			maxTxid = t
		}
	}
	resp := Response{
		Session: req.Session, Seq: req.Seq, Code: CodeOK, Path: req.Path,
		Txid: maxTxid, MultiResults: results,
	}
	if d.dyn != nil {
		resp.MapEpoch = d.mapView().Epoch
	}
	d.notify(req.Session, resp, resp.wireSize())
}

// buildTxnFold folds a committed transaction's resolved ops into the
// distributor's batch fold and builds the per-op client results. txidOf
// maps a shard to its commit txid (all ops of one shard share one txid,
// as a ZooKeeper multi shares one zxid). states supplies pre-read system
// states; missing ones are read from the system store.
func (d *Deployment) buildTxnFold(ctx cloud.Ctx, resolved []txn.ResolvedOp, txidOf func(int) int64, states map[string]sysNode) (*batchFold, []txn.Result) {
	fold := newBatchFold()
	results := make([]txn.Result, len(resolved))
	stateOf := func(p string) sysNode {
		if n, ok := states[p]; ok {
			return n
		}
		it, ok := d.System.Get(ctx, nodeKey(p), true)
		if !ok {
			return sysNode{}
		}
		n := decodeSysNode(it)
		states[p] = n
		return n
	}
	created := map[string]bool{}
	for i, op := range resolved {
		txid := txidOf(op.Shard)
		res := txn.Result{Type: op.Type, Path: op.Path, Code: txn.CodeOK}
		switch op.Type {
		case txn.OpCheck:
			// Validated at prepare; nothing to distribute.
		case txn.OpDelete:
			res.Txid = txid
			fold.foldDelete(op.Path, txid)
			fold.foldParent(op.ParentPath, "", op.ChildDel, op.Cversion, txid)
		case txn.OpCreate:
			res.Txid = txid
			n := &znode.Node{
				Path: op.Path,
				Data: op.Data,
				Stat: znode.Stat{
					Czxid: txid, Mzxid: txid, Pzxid: txid, Version: 0,
					Ephemeral: op.EphOwner != "", Owner: op.EphOwner,
					DataLength: int32(len(op.Data)),
				},
			}
			created[op.Path] = true
			res.Stat = n.Stat
			fold.foldWrite(op.Path, n, txid)
			fold.foldParent(op.ParentPath, op.ChildAdd, "", op.Cversion, txid)
		case txn.OpSetData:
			res.Txid = txid
			var st znode.Stat
			var children []string
			if created[op.Path] {
				st = znode.Stat{
					Czxid: txid, Mzxid: txid, Pzxid: txid, Version: op.Version,
					Ephemeral: op.EphOwner != "", Owner: op.EphOwner,
				}
			} else {
				state := stateOf(op.Path)
				children = append([]string(nil), state.Children...)
				st = znode.Stat{
					Czxid: state.Czxid, Mzxid: txid, Pzxid: state.Pzxid,
					Version: op.Version, Cversion: state.Cversion,
					Ephemeral: state.EphOwner != "", Owner: state.EphOwner,
					NumChildren: int32(len(children)),
				}
			}
			st.DataLength = int32(len(op.Data))
			n := &znode.Node{Path: op.Path, Data: op.Data, Stat: st, Children: children}
			res.Stat = st
			fold.foldWrite(op.Path, n, txid)
		}
		results[i] = res
	}
	return fold, results
}

// --- the coordinator (follower side) ---

// followerMulti handles an OpMulti request: validate statically, resume a
// redelivered in-flight transaction from its durable record, then run the
// single-shard fast path or the cross-shard two-phase commit.
func (d *Deployment) followerMulti(ctx cloud.Ctx, req Request) error {
	reqOps, err := txn.DecodeOpsWith(d.Cfg.codec, req.Data)
	if err != nil || len(reqOps) == 0 {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	for i, op := range reqOps {
		if err := znode.ValidatePath(op.Path); err != nil {
			d.respondMultiAbort(req, reqOps, i, CodeSystemError)
			return nil
		}
		if len(op.Data) > d.Cfg.MaxNodeB {
			d.respondMultiAbort(req, reqOps, i, CodeTooLarge)
			return nil
		}
	}
	if id, ok := d.Txns.IDForRequest(ctx, req.Session, req.Seq); ok {
		done, err := d.resumeTxn(ctx, req, reqOps, id)
		if done || err != nil {
			return err
		}
		// The crashed attempt was aborted and cleaned; run a fresh one.
	}
	for attempt := 0; attempt <= staleRouteRetries; attempt++ {
		// A transaction's shard groups must all come from one map epoch,
		// and its phase-two commit messages are ordered by intents rather
		// than queue position — so multis simply wait out any in-flight
		// migration instead of gating per path (the reshard engine in
		// turn waits for live transactions to finish before draining).
		if attempt > 0 {
			d.stageReq(req, obs.StageRetry)
		}
		d.awaitTxnRoutable(ctx)
		if attempt > 0 {
			d.stageReq(req, obs.StageValidate)
		}
		route, _ := d.routeFn()
		shards, _ := txn.Route(reqOps, route)
		if len(shards) == 1 {
			err = d.multiFastPath(ctx, req, reqOps)
		} else {
			err = d.multiTwoPhase(ctx, req, reqOps)
		}
		if !errors.Is(err, errStaleRoute) {
			return err
		}
	}
	d.respondFailure(req, CodeSystemError)
	return nil
}

// awaitTxnRoutable blocks while any migration is in flight (dynamic
// deployments only; one strongly consistent map read per poll).
func (d *Deployment) awaitTxnRoutable(ctx cloud.Ctx) {
	if d.dyn == nil {
		return
	}
	if d.mapView().Mig == nil {
		return
	}
	for attempt := 0; d.refreshMap(ctx).Mig != nil; attempt++ {
		d.K.Sleep(sim.Time(min(attempt+1, 10)) * 2 * sim.Ms(1))
	}
}

// multiFastPath commits a single-shard multi through the existing
// pipeline: one leader message, one multi-item system-store transaction.
// No transaction record, no intents — the timed locks held across the
// commit and the shard's serialized leader give atomicity and isolation
// for free, so a WriteShards=1 deployment pays zero 2PC overhead.
func (d *Deployment) multiFastPath(ctx cloud.Ctx, req Request, reqOps []txn.Op) error {
	plan, failIdx, code, err := d.prepareMulti(ctx, req, reqOps)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if failIdx >= 0 {
		d.respondMultiAbort(req, reqOps, failIdx, code)
		return nil
	}
	shards := effectfulShards(plan.resolved)
	if len(shards) == 0 {
		// Checks only: the locks proved every guard at one instant.
		plan.unlock(d, ctx)
		fold, results := d.buildTxnFold(ctx, plan.resolved, func(int) int64 { return 0 }, map[string]sysNode{})
		fold.release()
		d.notifyMulti(req, results, nil)
		return nil
	}
	if len(shards) > 1 {
		// Routing was decided on the REQUESTED paths, but a top-level
		// sequential create resolves to a different top segment — and so
		// possibly a different shard. Never commit a node outside its
		// owning shard's serialized pipeline: release and go through the
		// coordinator (revalidation reruns against fresh state).
		plan.unlock(d, ctx)
		return d.multiTwoPhase(ctx, req, reqOps)
	}
	shard := shards[0]
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, Op: OpMulti, Shard: shard,
		Path: anchorPath(plan.resolved, shard),
		NodeBlob: d.encodeTxnMsgOwned(txnMsg{
			Ops: plan.resolved, ItemPaths: plan.order, LockTs: plan.lockTs(),
			traceID: obs.TraceOf(req.Session, req.Seq),
		}),
	}
	if plan.mv != nil {
		// Route with the plan's snapshot, not the live view: the commit
		// below pins the snapshot's generation, so a refresh between
		// planning and pushing cannot desynchronize message and guard.
		dynStamp(&msg, plan.mv)
	}
	r, err := d.pushToShard(ctx, msg)
	if err != nil {
		plan.unlock(d, ctx)
		code := CodeSystemError
		if errors.Is(err, errMsgTooLarge) {
			code = CodeTooLarge
		}
		d.respondFailure(req, code)
		return nil
	}
	txid := r.txid
	if d.crashAt(obs.StageTxnPrep, req.Session, req.Seq) {
		return errInjectedCrash
	}
	// ④ One multi-item commit: every touched node and parent fails or
	// succeeds together, and the pending appends hand the transaction to
	// the shard's serialized leader.
	_, ups, _ := multiUpdates(plan.resolved, txid, false)
	parts := make([]fksync.TxPart, 0, len(plan.order))
	for _, p := range plan.order {
		parts = append(parts, fksync.TxPart{Lock: plan.items[p].lock, Updates: ups[p]})
	}
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	err = d.Locks.CommitUnlockTxGuard(d.billSpan(ctx, costReqTrace(req), sp, r.shard, ""), parts, d.dynGuard(r.shard, r.gen))
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	if err != nil {
		if d.staleRoutedCommit(ctx, r.shard, r.gen) {
			plan.unlock(d, ctx)
			return errStaleRoute
		}
		return nil // lease lost: the leader's replay may still recover it
	}
	d.applyEphRecords(ctx, plan.resolved)
	return nil
}

// multiTwoPhase is the cross-shard coordinator: prepare (intents + votes),
// decide (durable record), then drive the per-shard commits and the
// atomic apply.
func (d *Deployment) multiTwoPhase(ctx cloud.Ctx, req Request, reqOps []txn.Op) error {
	id, err := d.Txns.Mint(ctx)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if err := d.Txns.Begin(ctx, id, req.Session, req.Seq, reqOps); err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	d.stageReq(req, obs.StageTxnPrep)
	plan, failIdx, code, err := d.prepareMulti(ctx, req, reqOps)
	if err != nil || failIdx >= 0 {
		_ = d.Txns.Decide(ctx, id, txn.StatusPreparing, txn.StatusAborted, nil)
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		if err != nil {
			d.respondFailure(req, CodeSystemError)
		} else {
			d.respondMultiAbort(req, reqOps, failIdx, code)
		}
		return nil
	}
	// Phase 1: convert each shard group's timed locks into intents and
	// vote through the record — the deregister-barrier ack pattern. The
	// groups are disjoint (parents are colocated with children; the shared
	// root belongs to its first-touching op's group), so they proceed in
	// parallel. The decision below is made from the votes as recorded,
	// never from coordinator-local state, so a resumed coordinator would
	// reach the same verdict.
	groups := plan.itemsByShard()
	wg := sim.NewWaitGroup(d.K)
	for _, g := range groups {
		s, items := g.shard, g.items
		wg.Add(1)
		d.K.Go("txn-prepare", func() {
			defer wg.Done()
			vsp := d.reqSpan(req, obs.SpanTxnVote, s)
			defer d.spanEnd(vsp)
			// The whole vote leg — intent conversions plus the recorded
			// vote — bills into the per-shard vote span.
			vctx := d.billSpan(ctx, costReqTrace(req), vsp, s, "")
			verdict := "ok"
			for _, it := range items {
				var err error
				ups := []kv.Update{kv.Set{Name: attrTxnIntent, V: kv.N(id)}}
				// The intent conversion pins the group's routing
				// generation: once an intent is placed, the reshard
				// engine is already fenced out (it waits for live
				// transactions), so the guard only needs to reject a plan
				// routed with a superseded map.
				if guard := d.dynGuardMV(plan.mv, s); guard != nil {
					err = d.Locks.CommitUnlockTxGuard(vctx,
						[]fksync.TxPart{{Lock: it.lock, Updates: ups}}, guard)
				} else {
					_, err = d.Locks.CommitUnlock(vctx, it.lock, ups)
				}
				if err != nil {
					verdict = "fail:" + string(CodeSystemError)
					break // lease lost mid-prepare: isolation not guaranteed
				}
				it.intent = true
			}
			_, _ = d.Txns.Vote(vctx, id, s, verdict)
		})
	}
	wg.Wait()
	rec, found := d.Txns.Lookup(ctx, id)
	voteFail := !found || len(rec.Votes) < len(groups)
	for _, v := range rec.Votes {
		if v != "ok" {
			voteFail = true
		}
	}
	if voteFail {
		_ = d.Txns.Decide(ctx, id, txn.StatusPreparing, txn.StatusAborted, nil)
		plan.unlock(d, ctx) // locks that never became intents
		d.clearTxnMarks(ctx, id, plan.order)
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		if d.planWentStale(ctx, plan) {
			return errStaleRoute // re-route the whole transaction
		}
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	// Decision: durable and exclusive. From here the transaction MUST
	// apply; every later step is idempotent and resumable by redelivery.
	if err := d.Txns.Decide(ctx, id, txn.StatusPreparing, txn.StatusCommitted, plan.resolved); err != nil {
		return nil // a resumed duplicate owns the record; let it drive
	}
	if d.crashAt(obs.StageTxnCommit, req.Session, req.Seq) {
		return errInjectedCrash
	}
	return d.txnCommitDrive(ctx, req, id, plan.resolved, nil, false)
}

// txnCommitDrive executes phase 2 of a committed transaction — shared by
// the fresh path and record-based recovery (prior/repush set). Every step
// is conditional on record or item state, so partial progress by a
// crashed predecessor is absorbed, never double-applied.
func (d *Deployment) txnCommitDrive(ctx cloud.Ctx, req Request, id int64, resolved []txn.ResolvedOp, prior *txn.Record, repush bool) error {
	d.stageReq(req, obs.StageTxnCommit)
	t0 := d.K.Now()
	shards := effectfulShards(resolved)
	commits := map[int]int64{}
	ready := map[int]bool{}
	if prior != nil {
		for s, t := range prior.Commits {
			commits[s] = t
		}
		ready = prior.Ready
	}
	for _, s := range shards {
		_, pushed := commits[s]
		if pushed && (!repush || ready[s]) {
			continue
		}
		msg := leaderMsg{
			Session: req.Session, Seq: req.Seq, Op: OpTxnCommit, Shard: s,
			Path: anchorPath(resolved, s),
			NodeBlob: d.encodeTxnMsgOwned(txnMsg{
				ID: id, Ops: resolvedOfShard(resolved, s),
				traceID: obs.TraceOf(req.Session, req.Seq),
			}),
		}
		if d.dyn != nil {
			// Stamp the txid base so the shard's leader derives the same
			// txid the record holds (the generation is irrelevant here —
			// a committed transaction is applied regardless of reshards,
			// which wait for it instead).
			dynStamp(&msg, d.mapView())
		}
		r, err := d.pushToShard(ctx, msg)
		if err != nil {
			return err // redelivery re-drives from the record
		}
		if !pushed {
			_ = d.Txns.NoteCommit(ctx, id, s, r.txid)
			commits[s] = r.txid
		}
	}
	// The shared root's merged updates are coordinator-owned; then each
	// shard's items commit under the intent/mark guard. The leaders race
	// these writes with their own replays — first one wins.
	d.txnRootCommit(ctx, id, resolved, commits)
	for _, s := range shards {
		d.txnSysCommit(ctx, id, resolvedOfShard(resolved, s), commits[s])
	}
	if d.crashAt(obs.StageTxnApply, req.Session, req.Seq) {
		return errInjectedCrash
	}
	// Barrier: every shard leader finished its commit phase (watches
	// claimed, epochs entered, pendings popped) — the storage-backed
	// ready markers, again the deregister-ack pattern.
	if _, ok := d.Txns.AwaitReady(ctx, id, len(shards)); !ok {
		return errTxnBarrier
	}
	// Atomic apply: one coalesced cache invalidation, then every
	// user-store write of the transaction in one batch.
	d.stageReq(req, obs.StageTxnApply)
	results := d.applyTxn(ctx, resolved, commits)
	_ = d.Txns.Decide(ctx, id, txn.StatusCommitted, txn.StatusApplied, nil)
	// Only now release the intents: conflicting writers were fenced until
	// the transaction became readable, deferred watch deliveries fire.
	d.clearTxnMarks(ctx, id, allItemPaths(resolved))
	d.applyEphRecords(ctx, resolved)
	d.notifyMulti(req, results, commits)
	d.Txns.Delete(ctx, id, req.Session, req.Seq)
	d.recordPhase("txn.commit", d.K.Now()-t0)
	return nil
}

// txnRootCommit applies the transaction's merged updates to the shared
// root item in one idempotent conditional write (see multiUpdates'
// skipRoot). Includes the root's pending append when the root itself is a
// target, so its shard's leader finds the transaction at the head.
func (d *Deployment) txnRootCommit(ctx cloud.Ctx, id int64, resolved []txn.ResolvedOp, commits map[int]int64) {
	var ups []kv.Update
	rootTarget := false
	var rootTxid int64
	for _, op := range resolved {
		txid := commits[op.Shard]
		switch {
		case op.Type == txn.OpSetData && op.Path == znode.Root:
			ups = append(ups,
				kv.Set{Name: attrVersion, V: kv.N(int64(op.Version))},
				kv.Set{Name: attrMzxid, V: kv.N(txid)})
			rootTarget = true
			rootTxid = txid
		case op.Type == txn.OpCreate && op.ParentPath == znode.Root:
			ups = append(ups, createParentUpdates(op.ChildAdd, txid)...)
		case op.Type == txn.OpDelete && op.ParentPath == znode.Root:
			ups = append(ups, deleteParentUpdates(op.ChildDel, txid)...)
		}
	}
	if len(ups) == 0 {
		return
	}
	if rootTarget {
		ups = append(ups, kv.ListAppend{Name: attrPending, Vals: []int64{rootTxid}})
	}
	ups = append(ups, kv.Set{Name: attrTxnCommitMark, V: kv.N(id)})
	_, _ = d.System.Update(ctx, nodeKey(znode.Root), ups, txnCommitCond(id))
}

// txnSysCommit applies one shard's system-store commit in a single
// transaction over its items, guarded per item by the intent/mark pair.
// A failed condition (false) means the racing replica — coordinator or
// leader replay, whichever lost — already applied it.
func (d *Deployment) txnSysCommit(ctx cloud.Ctx, id int64, ops []txn.ResolvedOp, txid int64) bool {
	touched, ups, _ := multiUpdates(ops, txid, true)
	if len(touched) == 0 {
		return false
	}
	txops := make([]kv.TxOp, 0, len(touched))
	for _, p := range touched {
		u := append(append([]kv.Update{}, ups[p]...), kv.Set{Name: attrTxnCommitMark, V: kv.N(id)})
		txops = append(txops, kv.TxOp{Key: nodeKey(p), Updates: u, Cond: txnCommitCond(id)})
	}
	return d.System.Transact(ctx, txops) == nil
}

// applyTxn is the commit point for readers: reload the per-region epoch
// unions (every participant's watch ids entered before its ready marker),
// fold the whole transaction, and distribute it atomically.
func (d *Deployment) applyTxn(ctx cloud.Ctx, resolved []txn.ResolvedOp, commits map[int]int64) []txn.Result {
	t0 := d.K.Now()
	epochs := map[cloud.Region][]int64{}
	for _, s := range d.Stores {
		e, _ := d.Epoch(ctx, s.Region())
		epochs[s.Region()] = e
	}
	fold, results := d.buildTxnFold(ctx, resolved, func(s int) int64 { return commits[s] }, map[string]sysNode{})
	d.distributeFold(ctx, fold, epochs, true)
	fold.release()
	d.recordPhase("txn.apply", d.K.Now()-t0)
	return results
}

// resumeTxn continues a redelivered coordinator from its durable record.
// done=false means the stale attempt was aborted and cleaned up and the
// caller should run a fresh transaction.
func (d *Deployment) resumeTxn(ctx cloud.Ctx, req Request, reqOps []txn.Op, id int64) (bool, error) {
	rec, found := d.Txns.Lookup(ctx, id)
	if !found {
		// The predecessor finished (the answer precedes collection); just
		// drop the dangling request pointer.
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		return true, nil
	}
	switch rec.Status {
	case txn.StatusPreparing:
		// Died mid-prepare: abort the attempt. Stray intents on
		// sequential-resolved paths self-heal through lockNodeClean.
		if err := d.Txns.Decide(ctx, id, txn.StatusPreparing, txn.StatusAborted, nil); err != nil {
			return true, nil // someone else owns the record now
		}
		d.clearTxnMarks(ctx, id, staticPaths(rec.Ops))
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		return false, nil
	case txn.StatusAborted:
		d.clearTxnMarks(ctx, id, staticPaths(rec.Ops))
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		d.respondMultiAbort(req, reqOps, -1, CodeTxnAborted)
		return true, nil
	case txn.StatusCommitted:
		return true, d.txnCommitDrive(ctx, req, id, rec.Resolved, &rec, true)
	case txn.StatusApplied:
		// Died between the apply and the answer: rebuild the results.
		fold, results := d.buildTxnFold(ctx, rec.Resolved,
			func(s int) int64 { return rec.Commits[s] }, map[string]sysNode{})
		fold.release()
		d.clearTxnMarks(ctx, id, allItemPaths(rec.Resolved))
		d.applyEphRecords(ctx, rec.Resolved)
		d.notifyMulti(req, results, rec.Commits)
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
		return true, nil
	}
	return true, nil
}

// --- the leader side ---

// awaitTxnHeads resolves the push/commit race for a transaction message:
// every target node's pending head must become txid. Like awaitCommit it
// clears orphaned heads and replays the commit on behalf of a crashed
// coordinator — conditional on the fast path's timed locks or the
// cross-shard intents, whichever the message carries. shard/gen identify
// the message's routing for the dynamic foreign-head rule and the
// fast-path replay's generation guard.
func (d *Deployment) awaitTxnHeads(ctx cloud.Ctx, op OpCode, tm txnMsg, txid int64, shard int, gen int64) (map[string]sysNode, bool) {
	targets := txnTargets(tm.Ops)
	states := map[string]sysNode{}
	triedCommit := false
	for attempt := 0; attempt < 12; attempt++ {
		allOK := true
		for _, p := range targets {
			if _, done := states[p]; done {
				continue
			}
			it, ok := d.System.Get(ctx, nodeKey(p), true)
			if ok {
				node := decodeSysNode(it)
				if len(node.Pending) > 0 {
					head := node.Pending[0]
					if head == txid {
						states[p] = node
						continue
					}
					if d.dyn != nil && shardmap.ShardOfTxid(head) != shard {
						// Migration boundary: a foreign-shard head is a
						// live write of the path's new owner, never an
						// orphan of ours (see awaitCommit).
						allOK = false
						continue
					}
					if head < txid {
						_, _ = d.System.Update(ctx, nodeKey(p),
							[]kv.Update{kv.ListPopHead{Name: attrPending}},
							kv.NumListHeadEq{Name: attrPending, V: head})
						allOK = false
						continue
					}
					return nil, false // our entry was already consumed
				}
			}
			allOK = false
		}
		if allOK && len(states) == len(targets) {
			return states, true
		}
		if attempt >= 2 && !triedCommit {
			triedCommit = true
			d.tryCommitTxn(ctx, op, tm, txid, shard, gen)
			continue
		}
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return nil, false
}

// tryCommitTxn replays a transaction message's system-store commit on
// behalf of a crashed coordinator: the fast path under the original timed
// locks (plus the routing-generation guard on a dynamic deployment, like
// tryCommit), a cross-shard shard under the intent/mark guard — never
// generation-guarded, because a durably committed transaction must stay
// appliable (the reshard engine waits live transactions out instead).
func (d *Deployment) tryCommitTxn(ctx cloud.Ctx, op OpCode, tm txnMsg, txid int64, shard int, gen int64) bool {
	if op == OpTxnCommit {
		return d.txnSysCommit(ctx, tm.ID, tm.Ops, txid)
	}
	// Fast path: rebuild the coordinator's multi-item CommitUnlockTx.
	_, ups, _ := multiUpdates(tm.Ops, txid, false)
	ts := map[string]int64{}
	for i, p := range tm.ItemPaths {
		if i < len(tm.LockTs) {
			ts[p] = tm.LockTs[i]
		}
	}
	txops := make([]kv.TxOp, 0, len(tm.ItemPaths))
	for _, p := range tm.ItemPaths {
		u := append(append([]kv.Update{}, ups[p]...), kv.Remove{Name: fksync.LockAttr})
		txops = append(txops, kv.TxOp{
			Key: nodeKey(p), Updates: u,
			Cond: kv.Eq{Name: fksync.LockAttr, V: kv.N(ts[p])},
		})
	}
	txops = append(txops, d.dynGuard(shard, gen)...)
	return d.System.Transact(ctx, txops) == nil
}

// leaderProcessMulti is the fast path's leader commit phase: await the
// multi-item commit, pre-fire watches, fold the whole transaction, and
// distribute it atomically within the shard's serialized pipeline.
func (d *Deployment) leaderProcessMulti(ctx cloud.Ctx, msg leaderMsg, tm txnMsg, txid int64, epochs map[cloud.Region][]int64) []watchCompletion {
	d.stageMsg(msg, obs.StageCommit)
	t0 := d.K.Now()
	states, ok := d.awaitTxnHeads(ctx, msg.Op, tm, txid, msg.Shard, dynGen(msg))
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !ok {
		if d.staleDynMsg(ctx, msg, dynGen(msg)) {
			return nil // stranded by a reshard: the coordinator re-routes
		}
		d.notifyResult(msg, txid, CodeSystemError, znode.Stat{})
		return nil
	}
	// Watch ids enter the epoch counters before anything becomes readable
	// (the multi-shard pre-fire ordering; Z4 holds on every deployment).
	t0 = d.K.Now()
	var fired []firedWatch
	for _, op := range tm.Ops {
		if !op.Effectful() {
			continue
		}
		view := opMsgView(op)
		view.Shard = msg.Shard
		if d.fanoutOn() {
			d.fanoutPublish(ctx, view, txid, epochs)
			continue
		}
		f := d.queryWatches(ctx, view)
		d.appendEpochs(ctx, f, msg.Shard, epochs)
		fired = append(fired, f...)
	}
	d.recordPhase("leader.watchquery", d.K.Now()-t0)

	fold, results := d.buildTxnFold(ctx, tm.Ops, func(int) int64 { return txid }, states)
	d.stageMsg(msg, obs.StageFlush)
	t0 = d.K.Now()
	d.distributeFold(ctx, fold, epochs, true)
	d.recordPhase("leader.update", d.K.Now()-t0)
	if d.fanoutOn() {
		// The whole multi() is applied atomically above: every sub-op's
		// parked firings share this txid and release together.
		d.fanoutRelease(ctx, txid)
	}

	var comps []watchCompletion
	for _, f := range fired {
		payload := watchPayload{WatchID: f.wid, Event: f.event, Path: f.path, Txid: txid, Sessions: f.sessions}
		sp := d.tspan(d.msgTrace(msg), obs.SpanWatchDeliver, f.path, msg.Shard, "")
		fut := d.Platform.InvokeAsync(d.billSpan(ctx, costMsgTrace(msg), sp, msg.Shard, ""), FnWatch, d.encodeWatchOwned(payload))
		comps = append(comps, watchCompletion{wid: f.wid, fut: fut, span: sp})
	}

	// Pop each target's single pending entry; deleted nodes may be
	// collected — their user-store removal is already distributed, as in
	// the per-message pipeline.
	for _, p := range txnTargets(tm.Ops) {
		op := OpSetData
		if nf := fold.nodes[p]; nf != nil && nf.del {
			op = OpDelete
		}
		d.popPending(ctx, leaderMsg{Op: op, Path: p}, txid, true)
	}
	fold.release()
	d.stageMsg(msg, obs.StageRespond)
	resp := Response{
		Session: msg.Session, Seq: msg.Seq, Code: CodeOK, Path: msg.Path,
		Txid: txid, MultiResults: results,
	}
	if d.dyn != nil {
		resp.MapEpoch = d.mapView().Epoch
	}
	d.notify(msg.Session, resp, resp.wireSize())
	return comps
}

// leaderTxnCommit is one shard's commit phase of a cross-shard
// transaction: order it in the pipeline, claim watches and enter their
// ids, pop the pendings, and post the ready marker. The user-store apply
// belongs to the coordinator, so the leader NEVER blocks on other shards
// — watch deliveries defer themselves until the transaction is readable,
// each managing its own epoch exit (a blocking barrier here could
// deadlock two transactions crossing the same pair of shard queues in
// opposite orders).
func (d *Deployment) leaderTxnCommit(ctx cloud.Ctx, msg leaderMsg, tm txnMsg, txid int64, epochs map[cloud.Region][]int64) []watchCompletion {
	rec, found := d.Txns.Lookup(ctx, tm.ID)
	if !found || rec.Ready[msg.Shard] {
		return nil // duplicate delivery of a finished commit phase
	}
	if t, ok := rec.Commits[msg.Shard]; ok {
		txid = t // a re-pushed message: the first push's txid is authoritative
	}
	// The shard's whole commit phase is one child span of the originating
	// multi()'s tree (msgTrace resolves OpTxnCommit to that trace): the
	// per-shard legs of a cross-shard 2PC show up side by side. Its
	// charges — head polls, watch claims, pending pops, the ready marker —
	// bill into the same span.
	ssp := d.tspan(d.msgTrace(msg), obs.SpanTxnShard, msg.Path, msg.Shard, "")
	ctx = d.billSpan(ctx, costMsgTrace(msg), ssp, msg.Shard, "")
	t0 := d.K.Now()
	_, ok := d.awaitTxnHeads(ctx, msg.Op, tm, txid, msg.Shard, dynGen(msg))
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !ok {
		// The coordinator died before its commit write and the intent
		// replay could not land; redelivery will re-drive us.
		d.spanEnd(ssp)
		return nil
	}
	t0 = d.K.Now()
	var fired []firedWatch
	fanoutPublished := false
	for _, op := range tm.Ops {
		if !op.Effectful() {
			continue
		}
		view := opMsgView(op)
		view.Shard = msg.Shard
		if d.fanoutOn() {
			d.fanoutPublish(ctx, view, txid, epochs)
			fanoutPublished = true
			continue
		}
		f := d.queryWatches(ctx, view)
		d.appendEpochs(ctx, f, msg.Shard, epochs)
		fired = append(fired, f...)
	}
	d.recordPhase("leader.watchquery", d.K.Now()-t0)
	// Pop pendings but never collect tombstones here: the intent must
	// keep fencing the path until the coordinator's atomic apply, and
	// collecting the item would drop it.
	for _, p := range txnTargets(tm.Ops) {
		d.popPending(ctx, leaderMsg{Op: OpSetData, Path: p}, txid, false)
	}
	_, _ = d.Txns.Ready(ctx, tm.ID, msg.Shard)
	d.spanEnd(ssp)
	if fanoutPublished {
		// Fan-out tier: the release defers itself until the coordinator's
		// atomic apply makes the transaction readable — the same ordering
		// the legacy post-apply delivery batch below enforces. The nodes
		// own delivery and epoch exit from there.
		d.K.Go("txn-fanout-release", func() {
			for {
				if _, _, ok := d.Txns.AwaitStatus(ctx, tm.ID, txn.StatusApplied); ok {
					break
				}
			}
			d.fanoutRelease(ctx, txid)
		})
	}
	if len(fired) > 0 {
		// One post-apply delivery batch for the whole shard: a single
		// goroutine polls the record once (instead of one poller per
		// watch), launches every delivery in parallel once the
		// transaction is readable, and — after all of them complete —
		// exits every watch id from each region's epoch counter in ONE
		// atomic list-remove per region instead of one per watch. Same
		// Z4 ordering (no delivery before the apply, no epoch exit before
		// its delivery completes), a per-shard-constant number of epoch
		// writes for watch-heavy transactional workloads.
		fired := fired
		tr := d.msgTrace(msg)
		ctr := costMsgTrace(msg)
		d.Obs.Metrics.Inc(obs.Key{Component: "txn", Name: "watch_batches", Shard: msg.Shard}, 1)
		d.Obs.Metrics.Inc(obs.Key{Component: "txn", Name: "watch_deliveries", Shard: msg.Shard}, int64(len(fired)))
		d.K.Go("txn-watch-batch", func() {
			// A missing record counts as applied (finished + collected).
			// A timed-out poll (ok=false) means the coordinator is still
			// being re-driven by redelivery: keep waiting — delivering
			// before the apply would notify a change that is not yet
			// readable (Z4).
			for {
				if _, _, ok := d.Txns.AwaitStatus(ctx, tm.ID, txn.StatusApplied); ok {
					break
				}
			}
			futs := make([]*sim.Future[error], 0, len(fired))
			wids := make([]int64, 0, len(fired))
			spans := make([]int64, 0, len(fired))
			for _, f := range fired {
				payload := watchPayload{WatchID: f.wid, Event: f.event, Path: f.path, Txid: txid, Sessions: f.sessions}
				sp := d.tspan(tr, obs.SpanWatchDeliver, f.path, msg.Shard, "")
				spans = append(spans, sp)
				futs = append(futs, d.Platform.InvokeAsync(d.billSpan(ctx, ctr, sp, msg.Shard, ""), FnWatch, d.encodeWatchOwned(payload)))
				wids = append(wids, f.wid)
			}
			for i, fut := range futs {
				_ = fut.Wait()
				d.spanEnd(spans[i])
			}
			for _, s := range d.Stores {
				_, _ = d.System.Update(ctx, epochKey(s.Region(), msg.Shard),
					[]kv.Update{kv.ListRemove{Name: attrEpochList, Vals: wids}}, nil)
			}
		})
	}
	return nil
}
