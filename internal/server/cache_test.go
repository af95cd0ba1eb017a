package server

import (
	"testing"

	"shapesol/internal/job"
)

func res(steps int64) job.Result {
	return job.Result{Protocol: "p", Steps: steps}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache[job.Result](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("a", res(1))
	got, ok := c.Get("a")
	if !ok || got.Steps != 1 {
		t.Fatalf("Get(a) = %+v, %v", got, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1 hit 1 miss", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[job.Result](2)
	c.Put("a", res(1))
	c.Put("b", res(2))
	c.Get("a") // a is now the most recently used
	c.Put("c", res(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh entry was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCacheRePutRefreshesRecency(t *testing.T) {
	c := NewCache[job.Result](2)
	c.Put("a", res(1))
	c.Put("b", res(2))
	c.Put("a", res(1)) // same deterministic key: recency refresh only
	c.Put("c", res(3))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("re-put entry was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache[job.Result](0)
	c.Put("a", res(1))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}
