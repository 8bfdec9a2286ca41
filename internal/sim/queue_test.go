package sim

import (
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func() {
		for i := 0; i < 5; i++ {
			v, ok := q.Pop()
			if !ok {
				t.Errorf("unexpected close")
				return
			}
			got = append(got, v)
		}
	})
	k.Go("producer", func() {
		for i := 0; i < 5; i++ {
			k.Sleep(time.Millisecond)
			q.Push(i)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("len %d", len(got))
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k)
	var at Time
	k.Go("consumer", func() {
		q.Pop()
		at = k.Now()
	})
	k.Go("producer", func() {
		k.Sleep(7 * time.Millisecond)
		q.Push("x")
	})
	k.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("popped at %v", at)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var ok bool
	var at Time
	k.Go("consumer", func() {
		_, ok = q.PopTimeout(3 * time.Millisecond)
		at = k.Now()
	})
	k.Run()
	if ok || at != 3*time.Millisecond {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
}

func TestQueuePopTimeoutDeliversEarlyPush(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var v int
	var ok bool
	k.Go("consumer", func() { v, ok = q.PopTimeout(10 * time.Millisecond) })
	k.Go("producer", func() {
		k.Sleep(2 * time.Millisecond)
		q.Push(9)
	})
	k.Run()
	if !ok || v != 9 {
		t.Fatalf("v=%d ok=%v", v, ok)
	}
}

func TestQueueClose(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	q.Push(1)
	var vals []int
	var closedSeen bool
	k.Go("consumer", func() {
		for {
			v, ok := q.Pop()
			if !ok {
				closedSeen = true
				return
			}
			vals = append(vals, v)
		}
	})
	k.Go("closer", func() {
		k.Sleep(time.Millisecond)
		q.Close()
	})
	k.Run()
	if !closedSeen || len(vals) != 1 {
		t.Fatalf("closed=%v vals=%v", closedSeen, vals)
	}
}

func TestQueuePopBatchCollectsBuffered(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	for i := 0; i < 7; i++ {
		q.Push(i)
	}
	var batch []int
	k.Go("poller", func() { batch = q.PopBatch(5, 0) })
	k.Run()
	if len(batch) != 5 || batch[0] != 0 || batch[4] != 4 {
		t.Fatalf("batch = %v", batch)
	}
	if q.Len() != 2 {
		t.Fatalf("left %d", q.Len())
	}
}

func TestQueuePopBatchWindowGathersLateArrivals(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var batch []int
	k.Go("poller", func() { batch = q.PopBatch(10, 5*time.Millisecond) })
	k.Go("producer", func() {
		q.Push(0)
		k.Sleep(2 * time.Millisecond)
		q.Push(1)
		k.Sleep(10 * time.Millisecond) // outside the window
		q.Push(2)
	})
	k.Run()
	if len(batch) != 2 {
		t.Fatalf("batch = %v", batch)
	}
}

func TestTwoConsumersShareItemsWithoutLoss(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	seen := map[int]bool{}
	consume := func() {
		for {
			v, ok := q.Pop()
			if !ok {
				return
			}
			if seen[v] {
				t.Errorf("duplicate %d", v)
			}
			seen[v] = true
			k.Sleep(time.Millisecond)
		}
	}
	k.Go("c1", consume)
	k.Go("c2", consume)
	k.Go("producer", func() {
		for i := 0; i < 20; i++ {
			q.Push(i)
			k.Sleep(time.Millisecond / 2)
		}
		q.Close()
	})
	k.Run()
	if len(seen) != 20 {
		t.Fatalf("saw %d items", len(seen))
	}
}

func TestQueueReleasesPoppedItems(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[*int](k)
	for i := 0; i < 3; i++ {
		v := i
		q.Push(&v)
	}
	q.TryPop()
	q.TryPop()
	for i, p := range q.items.buf[:q.items.head] {
		if p != nil {
			t.Fatalf("popped slot %d still holds %d", i, *p)
		}
	}
	q.TryPop()
	if q.items.head != 0 || len(q.items.buf) != 0 || cap(q.items.buf) == 0 {
		t.Fatalf("drained queue not rewound: head %d len %d cap %d",
			q.items.head, len(q.items.buf), cap(q.items.buf))
	}
	// A drained queue reuses its array.
	if allocs := testing.AllocsPerRun(100, func() {
		q.Push(nil)
		q.TryPop()
	}); allocs != 0 {
		t.Fatalf("push/pop on a drained queue allocated %.1f/op, want 0", allocs)
	}
}

func TestQueueNeverDrainedStaysBounded(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	q.Push(0)
	for i := 1; i < 10000; i++ {
		q.Push(i)
		if v, _ := q.TryPop(); v != i-1 {
			t.Fatalf("popped %d, want %d", v, i-1)
		}
	}
	if c := cap(q.items.buf); c > 4 {
		t.Fatalf("a queue holding 1-2 items grew to cap %d", c)
	}
}
