package runner

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEverything submits a batch larger than the worker count and
// checks every task ran exactly once before Close returned.
func TestPoolRunsEverything(t *testing.T) {
	const tasks = 100
	pool := NewPool(4, tasks)
	var ran [tasks]atomic.Int32
	for i := 0; i < tasks; i++ {
		if err := pool.TrySubmit(func() { ran[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
}

// TestPoolQueueFull fills one worker and the whole queue with blocked
// tasks; the next TrySubmit must report backpressure rather than block or
// drop.
func TestPoolQueueFull(t *testing.T) {
	const queue = 2
	pool := NewPool(1, queue)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if err := pool.TrySubmit(func() { defer wg.Done(); <-release }); err != nil {
		t.Fatal(err)
	}
	// The worker may need a moment to pick the blocker up and free a
	// queue slot; fill until full.
	deadline := time.Now().Add(5 * time.Second)
	filled := 0
	for filled < queue {
		if err := pool.TrySubmit(func() {}); err == nil {
			filled++
		} else if time.Now().After(deadline) {
			t.Fatalf("queue never accepted %d tasks", queue)
		}
	}
	if err := pool.TrySubmit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit on a full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	wg.Wait()
	pool.Close()
}

// TestPoolClosedRejects checks submission after Close.
func TestPoolClosedRejects(t *testing.T) {
	pool := NewPool(1, 1)
	pool.Close()
	if err := pool.TrySubmit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("TrySubmit after Close = %v, want ErrPoolClosed", err)
	}
	pool.Close() // idempotent
}

// TestPoolCloseDrains: Close must wait for queued (not only running)
// tasks.
func TestPoolCloseDrains(t *testing.T) {
	pool := NewPool(1, 8)
	var done atomic.Int32
	for i := 0; i < 8; i++ {
		if err := pool.TrySubmit(func() {
			time.Sleep(time.Millisecond)
			done.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	if got := done.Load(); got != 8 {
		t.Fatalf("Close returned with %d/8 tasks done", got)
	}
}
