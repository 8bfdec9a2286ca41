package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestTimeNeverRegressesProperty: no matter how sleeps interleave, the
// kernel's clock is non-decreasing at every wake-up and every process
// wakes exactly as many times as it sleeps.
func TestTimeNeverRegressesProperty(t *testing.T) {
	f := func(seed int64, delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(seed)
		var last Time
		ok := true
		wakes := 0
		for pi := 0; pi < 4; pi++ {
			pi := pi
			k.Go("p", func() {
				for j, d := range delays {
					if j%4 != pi {
						continue
					}
					k.Sleep(time.Duration(d) * time.Microsecond)
					if k.Now() < last {
						ok = false
					}
					last = k.Now()
					wakes++
				}
			})
		}
		k.Run()
		k.Shutdown()
		return ok && wakes == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHeapOrderProperty: the event heap pops any set of events in
// strictly increasing (at, seq) order, however they were pushed and however
// many share an instant. (at, seq) is a total order, so this pins the pop
// order, and with it every trace, to the events alone.
func TestEventHeapOrderProperty(t *testing.T) {
	f := func(seed int64, ats []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var h eventHeap
		popped := 0
		for i, seq := range r.Perm(len(ats)) {
			h.push(event{at: Time(ats[i] % 8), seq: int64(seq)})
			if r.Intn(4) == 0 { // interleave pops with pushes
				h.pop()
				popped++
			}
		}
		for last := (event{at: -1}); len(h) > 0; popped++ {
			e := h.pop()
			if !last.before(e) {
				return false
			}
			last = e
		}
		return popped == len(ats)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismAcrossRunsProperty: identical seeds produce identical
// schedules even with randomized latency sampling in between.
func TestDeterminismAcrossRunsProperty(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel(seed)
		d := Q(1, 3, 9, 20, 100)
		var trace []Time
		for p := 0; p < 3; p++ {
			k.Go("p", func() {
				for i := 0; i < 10; i++ {
					k.Sleep(d.Sample(k.Rand()))
					trace = append(trace, k.Now())
				}
			})
		}
		k.Run()
		k.Shutdown()
		return trace
	}
	for seed := int64(0); seed < 5; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFutureCompletedTwicePanics guards the double-completion invariant.
func TestFutureCompletedTwicePanics(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	k.Go("x", func() {
		f.Complete(1)
		defer func() {
			if recover() == nil {
				t.Error("second Complete did not panic")
			}
		}()
		f.Complete(2)
	})
	k.Run()
	k.Shutdown()
	if f.TryComplete(3) {
		// TryComplete on a done future must report false.
		t.Error("TryComplete on done future returned true")
	}
}

// TestSemaphoreTryAcquire covers the non-blocking path.
func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel(1)
	s := NewSemaphore(k, 1)
	k.Go("x", func() {
		if !s.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if s.TryAcquire() {
			t.Error("second TryAcquire should fail")
		}
		s.Release()
		if s.Available() != 1 {
			t.Errorf("available = %d", s.Available())
		}
	})
	k.Run()
	k.Shutdown()
}

// TestWaitGroupNegativePanics guards against double Done.
func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	k.Go("x", func() {
		wg.Add(1)
		wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("negative WaitGroup did not panic")
			}
		}()
		wg.Done()
	})
	k.Run()
	k.Shutdown()
}
