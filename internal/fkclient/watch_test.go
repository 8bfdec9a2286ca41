package fkclient

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// TestWatchReRegistrationFromCallback: callbacks run on the client's event
// worker, so re-arming a watch (a synchronous system-store write) from
// inside a callback must not deadlock the session.
func TestWatchReRegistrationFromCallback(t *testing.T) {
	run(t, 41, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/cfg", []byte("0"), 0)

		events := 0
		var arm func()
		arm = func() {
			_, _, err := watcher.GetDataW("/cfg", func(n core.Notification) {
				events++
				arm() // synchronous op from the callback
			})
			if err != nil {
				t.Errorf("re-arm: %v", err)
			}
		}
		arm()
		for i := 1; i <= 3; i++ {
			writer.SetData("/cfg", []byte{byte(i)}, -1)
			k.Sleep(3 * time.Second)
		}
		if events != 3 {
			t.Errorf("saw %d events, want 3 (re-registration broken)", events)
		}
	})
}

// TestManyWatchersSingleEvent: dozens of sessions watch one node; a single
// update must notify every one of them through one watch-function fan-out.
func TestManyWatchersSingleEvent(t *testing.T) {
	run(t, 43, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		defer writer.Close()
		writer.Create("/hot", nil, 0)

		const n = 20
		notified := 0
		watchers := make([]*Client, n)
		for i := range watchers {
			w := mustConnect(t, d, fmt.Sprintf("w%d", i))
			defer w.Close()
			watchers[i] = w
			w.GetDataW("/hot", func(core.Notification) { notified++ })
		}
		before := d.Platform.Function(core.FnWatch).Invocations()
		writer.SetData("/hot", []byte("x"), -1)
		k.Sleep(10 * time.Second)
		if notified != n {
			t.Errorf("notified %d of %d watchers", notified, n)
		}
		// One watch-group: a single watch-function invocation fans out to
		// all sessions (Section 4.1, "Decoupling Watch Delivery").
		if got := d.Platform.Function(core.FnWatch).Invocations() - before; got != 1 {
			t.Errorf("watch function ran %d times, want 1", got)
		}
	})
}

// TestEpochCleanupAfterDelivery: once notifications are delivered, the
// region epoch counter must drain back to empty, so later reads never
// stall on stale watch ids.
func TestEpochCleanupAfterDelivery(t *testing.T) {
	run(t, 44, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/e", nil, 0)
		watcher.GetDataW("/e", func(core.Notification) {})
		writer.SetData("/e", []byte("x"), -1)
		k.Sleep(10 * time.Second)
		epoch, err := d.Epoch(watcher.ctx, d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("epoch: %v", err)
		}
		if len(epoch) != 0 {
			t.Errorf("epoch not drained: %v", epoch)
		}
		// A subsequent read must be instantaneous (no stall).
		t0 := k.Now()
		if _, _, err := watcher.GetData("/e"); err != nil {
			t.Errorf("read: %v", err)
		}
		if k.Now()-t0 > 100*time.Millisecond {
			t.Errorf("read stalled %v after epoch drain", k.Now()-t0)
		}
	})
}

// TestDeleteFiresBothDataAndExistsWatches matches ZooKeeper semantics.
func TestDeleteFiresBothDataAndExistsWatches(t *testing.T) {
	run(t, 45, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		w1 := mustConnect(t, d, "w1")
		w2 := mustConnect(t, d, "w2")
		defer writer.Close()
		defer w1.Close()
		defer w2.Close()
		writer.Create("/victim", nil, 0)
		var got []core.EventType
		w1.GetDataW("/victim", func(n core.Notification) { got = append(got, n.Event) })
		w2.ExistsW("/victim", func(n core.Notification) { got = append(got, n.Event) })
		writer.Delete("/victim", -1)
		k.Sleep(5 * time.Second)
		if len(got) != 2 {
			t.Fatalf("events = %v", got)
		}
		for _, e := range got {
			if e != core.EventDeleted {
				t.Errorf("event = %v, want deleted", e)
			}
		}
	})
}

// TestWatchAcrossSessionCloseIsDropped: a session that closes before its
// watch fires simply never hears about it; the system must not wedge.
func TestWatchAcrossSessionCloseIsDropped(t *testing.T) {
	run(t, 46, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		defer writer.Close()
		ghost := mustConnect(t, d, "ghost")
		writer.Create("/g", nil, 0)
		fired := false
		ghost.GetDataW("/g", func(core.Notification) { fired = true })
		ghost.Close()
		if _, err := writer.SetData("/g", []byte("x"), -1); err != nil {
			t.Errorf("set after watcher close: %v", err)
		}
		k.Sleep(5 * time.Second)
		if fired {
			t.Error("closed session received a notification")
		}
		// The system keeps working for everyone else.
		if _, err := writer.SetData("/g", []byte("y"), -1); err != nil {
			t.Errorf("follow-up write: %v", err)
		}
	})
}

// rearmAliasRead reproduces the Z4 stale-alias stall. A watcher holds
// one-shot data watches on p and q; one writer session pipelines a write
// to q and then to p, so one leader invocation distributes p's new value
// while q's firing is still in the epoch list — p's version is stamped
// with q's watch id. Once q's notification arrives the watcher re-arms q
// and reads p. The stamp's firing was delivered before the re-arm, so the
// read must not wait for the new registration, which only the next write
// to q would fire. p and q may be the same path.
func rearmAliasRead(t *testing.T, p, q string) {
	t.Helper()
	run(t, 61, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		paths := []string{"/slow", p}
		if q != p {
			paths = append(paths, q)
		}
		for _, path := range paths {
			if _, err := writer.Create(path, []byte("0"), 0); err != nil {
				t.Errorf("create %s: %v", path, err)
				return
			}
		}
		fired := sim.NewFuture[core.Notification](k)
		if _, _, err := watcher.GetDataW(q, func(n core.Notification) { fired.TryComplete(n) }); err != nil {
			t.Errorf("watch %s: %v", q, err)
			return
		}
		if p != q {
			if _, _, err := watcher.GetDataW(p, func(core.Notification) {}); err != nil {
				t.Errorf("watch %s: %v", p, err)
				return
			}
		}
		// A large write ahead of the pair keeps the leader busy while the
		// pair queues up behind it.
		_ = writer.submitWrite(core.OpSetData, "/slow", make([]byte, 200<<10), -1, 0)
		wq := writer.submitWrite(core.OpSetData, q, []byte("1"), -1, 0)
		wp := writer.submitWrite(core.OpSetData, p, []byte("2"), -1, 0)
		for _, f := range []*sim.Future[core.Response]{wq, wp} {
			if resp, ok := f.WaitTimeout(DefaultRequestTimeout); !ok || resp.Code != core.CodeOK {
				t.Errorf("pipelined write: %+v ok=%v", resp, ok)
				return
			}
		}
		if _, ok := fired.WaitTimeout(DefaultRequestTimeout); !ok {
			t.Errorf("notification for %s never delivered", q)
			return
		}
		// The scenario only exists if p's stored version carries q's id.
		_, stamp, err := d.StoreFor(d.Cfg.Profile.Home).Read(cloud.ClientCtx(d.Cfg.Profile.Home), p)
		if err != nil || !slices.Contains(stamp, core.WatchID(q, core.WatchData)) {
			t.Errorf("%s stamp %v (err %v) lacks %s's watch id: the writes did not share a leader invocation", p, stamp, err, q)
			return
		}
		t0 := k.Now()
		if _, _, err := watcher.GetDataW(q, func(core.Notification) {}); err != nil {
			t.Errorf("re-arm %s: %v", q, err)
			return
		}
		data, _, err := watcher.GetData(p)
		if err != nil || string(data) != "2" {
			t.Errorf("read %s after re-arming %s: %q %v", p, q, data, err)
			return
		}
		if waited := k.Now() - t0; waited > sim.Ms(1000) {
			t.Errorf("re-arm of %s and read of %s took %v: the read waited on the re-armed registration", q, p, waited)
		}
	})
}

func TestRearmedWatchStaleAliasTwoPaths(t *testing.T) { rearmAliasRead(t, "/p", "/q") }

func TestRearmedWatchStaleAliasSamePath(t *testing.T) { rearmAliasRead(t, "/p", "/p") }
