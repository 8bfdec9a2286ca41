package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("sleeper", func() {
		k.Sleep(5 * time.Second)
		woke = k.Now()
	})
	end := k.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Fatalf("run ended at %v, want 5s", end)
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		k := NewKernel(seed)
		var order []string
		spawn := func(name string, d time.Duration) {
			k.Go(name, func() {
				k.Sleep(d)
				order = append(order, name)
			})
		}
		spawn("a", 3*time.Millisecond)
		spawn("b", 1*time.Millisecond)
		spawn("c", 2*time.Millisecond)
		spawn("d", 1*time.Millisecond) // same time as b: spawn order breaks the tie
		k.Run()
		return order
	}
	want := []string{"b", "d", "c", "a"}
	for seed := int64(0); seed < 3; seed++ {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: got %v", seed, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: got %v want %v", seed, got, want)
			}
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.Go("outer", func() {
		k.Sleep(time.Second)
		k.Go("inner", func() {
			k.Sleep(time.Second)
			hits = append(hits, k.Now())
		})
		k.Sleep(3 * time.Second)
		hits = append(hits, k.Now())
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 2*time.Second || hits[1] != 4*time.Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestFutureWaitAndComplete(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var got int
	var at Time
	k.Go("waiter", func() {
		got = f.Wait()
		at = k.Now()
	})
	k.Go("completer", func() {
		k.Sleep(10 * time.Millisecond)
		f.Complete(42)
	})
	k.Run()
	if got != 42 || at != 10*time.Millisecond {
		t.Fatalf("got %d at %v", got, at)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string](k)
	var ok bool
	var at Time
	k.Go("waiter", func() {
		_, ok = f.WaitTimeout(5 * time.Millisecond)
		at = k.Now()
	})
	k.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
}

func TestFutureTimeoutThenLateCompleteIsIgnored(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var timedOut bool
	var resumedTwice int
	k.Go("waiter", func() {
		_, ok := f.WaitTimeout(time.Millisecond)
		timedOut = !ok
		resumedTwice++
		k.Sleep(10 * time.Millisecond) // late Complete must not wake this sleep early
		resumedTwice++
	})
	k.Go("late", func() {
		k.Sleep(2 * time.Millisecond)
		f.Complete(7)
	})
	end := k.Run()
	if !timedOut {
		t.Fatal("want timeout")
	}
	if resumedTwice != 2 {
		t.Fatalf("resume count %d", resumedTwice)
	}
	if end != 11*time.Millisecond {
		t.Fatalf("end %v", end)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		d := time.Duration(i) * time.Second
		k.Go("w", func() {
			k.Sleep(d)
			wg.Done()
		})
	}
	k.Go("waiter", func() {
		wg.Wait()
		doneAt = k.Now()
	})
	k.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("doneAt %v", doneAt)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		k.Go("worker", func() {
			sem.Acquire()
			active++
			if active > maxActive {
				maxActive = active
			}
			k.Sleep(time.Second)
			active--
			sem.Release()
		})
	}
	end := k.Run()
	if maxActive != 2 {
		t.Fatalf("maxActive = %d, want 2", maxActive)
	}
	if end != 3*time.Second {
		t.Fatalf("end %v, want 3s (6 jobs / 2 wide / 1s each)", end)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Go("ticker", func() {
		for {
			k.Sleep(time.Second)
			ticks++
		}
	})
	k.RunFor(5500 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if k.Now() != 5500*time.Millisecond {
		t.Fatalf("now = %v", k.Now())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
}

func TestShutdownReleasesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	for i := 0; i < 4; i++ {
		k.Go("blocked", func() {
			q.Pop() // blocks forever
		})
	}
	k.Run()
	if k.Live() != 4 {
		t.Fatalf("live = %d, want 4 parked", k.Live())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
}

func TestYieldInterleavesSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Go("a", func() {
		order = append(order, 1)
		k.Yield()
		order = append(order, 3)
	})
	k.Go("b", func() {
		order = append(order, 2)
		k.Yield()
		order = append(order, 4)
	})
	k.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestStopInsideProcessKeepsPendingEvents(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func() {
		k.Sleep(time.Second)
		order = append(order, "a1")
		k.Stop()
		k.Sleep(time.Second)
		order = append(order, "a2")
	})
	k.Go("b", func() {
		k.Sleep(2 * time.Second)
		order = append(order, "b1")
		k.Sleep(2 * time.Second)
		order = append(order, "b2")
	})
	if end := k.Run(); end != time.Second {
		t.Fatalf("stopped run ended at %v, want 1s", end)
	}
	if !reflect.DeepEqual(order, []string{"a1"}) || k.Live() != 2 {
		t.Fatalf("after Stop: order %v, live %d", order, k.Live())
	}
	// b's 2s wake-up was scheduled before a's, so it runs first.
	if end := k.RunUntil(time.Minute); end != 4*time.Second {
		t.Fatalf("resumed run ended at %v, want 4s", end)
	}
	if want := []string{"a1", "b1", "a2", "b2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRunUntilHorizonThenContinue(t *testing.T) {
	k := NewKernel(1)
	var order []string
	tick := func(name string, offset time.Duration) {
		k.Go(name, func() {
			k.Sleep(offset)
			for {
				order = append(order, name+"@"+k.Now().String())
				k.Sleep(time.Second)
			}
		})
	}
	tick("a", 0)
	tick("b", 500*time.Millisecond)
	if end := k.RunUntil(1200 * time.Millisecond); end != 1200*time.Millisecond || k.Now() != end {
		t.Fatalf("first run ended at %v (now %v), want 1.2s", end, k.Now())
	}
	if want := []string{"a@0s", "b@500ms", "a@1s"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("first run order = %v, want %v", order, want)
	}
	if end := k.RunUntil(2 * time.Second); end != 2*time.Second {
		t.Fatalf("second run ended at %v, want 2s", end)
	}
	if want := []string{"a@0s", "b@500ms", "a@1s", "b@1.5s", "a@2s"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second run order = %v, want %v", order, want)
	}
	k.Shutdown()
}

func TestExitHandsControlToNextProcess(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func() {
		k.Sleep(time.Second)
		k.Go("c", func() { order = append(order, "c@"+k.Now().String()) })
		order = append(order, "a@"+k.Now().String())
	})
	k.Go("b", func() {
		k.Sleep(2 * time.Second)
		order = append(order, "b@"+k.Now().String())
	})
	if end := k.Run(); end != 2*time.Second {
		t.Fatalf("run ended at %v, want 2s", end)
	}
	if want := []string{"a@1s", "c@1s", "b@2s"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d, want 0", k.Live())
	}
}

func TestLoneYieldReturnsAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	yields := 0
	k.Go("yielder", func() {
		k.Sleep(time.Second)
		for i := 0; i < 1000; i++ {
			k.Yield()
			if k.Now() != time.Second {
				t.Errorf("yield %d returned at %v, want 1s", i, k.Now())
				return
			}
			yields++
		}
	})
	if end := k.Run(); end != time.Second || yields != 1000 {
		t.Fatalf("run ended at %v after %d yields, want 1s and 1000", end, yields)
	}
}

func TestShutdownAfterMidChainRunReleasesGoroutines(t *testing.T) {
	// Goroutines released by earlier tests exit just after they signal
	// their kernel; let them finish so they do not leave the baseline
	// while this test runs.
	before := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != before {
			before, settled = n, 0
		} else {
			settled++
		}
	}
	k := NewKernel(1)
	q := NewQueue[int](k)
	for i := 0; i < 3; i++ {
		k.Go("popper", func() {
			for {
				q.Pop()
			}
		})
	}
	k.Go("pusher", func() {
		for i := 0; ; i++ {
			q.Push(i)
			k.Sleep(time.Millisecond)
		}
	})
	k.RunFor(10*time.Millisecond + 500*time.Microsecond)
	k.Go("never-started", func() { t.Error("a process killed before its first run ran") })
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
	// A released goroutine exits just after it signals the kernel.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after shutdown, want %d", n, before)
	}
}

func TestShutdownWhileUnwindingParkReturnsControl(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var order []string
	k.Go("sleepy-defer", func() {
		defer func() {
			order = append(order, "defer")
			k.Sleep(time.Second) // parks again while being killed
			order = append(order, "after-sleep")
		}()
		q.Pop()
	})
	k.Go("other", func() {
		q.Pop()
		order = append(order, "other-ran")
	})
	k.Run()
	k.Shutdown() // sleepy-defer stays parked in its deferred Sleep
	if want := []string{"defer"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
