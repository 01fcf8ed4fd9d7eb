package flight

import (
	"context"
	"sync"
	"testing"
)

// TestGroupSharesOneOutcome parks waiters on an owned key and checks they
// all read the owner's value, and that Finish retires the key so the next
// Begin owns a fresh Call.
func TestGroupSharesOneOutcome(t *testing.T) {
	var g Group[int]
	c, owner := g.Begin("k")
	if !owner {
		t.Fatal("first Begin does not own the key")
	}
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		w, own := g.Begin("k")
		if own || w != c {
			t.Fatal("second Begin did not join the owner's Call")
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = w.Wait(context.Background())
		}(i)
	}
	g.Finish("k", c, 42)
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("waiter %d read %d, want 42", i, v)
		}
	}
	if c2, own := g.Begin("k"); !own || c2 == c {
		t.Fatal("Finish did not retire the key")
	}
}

// TestWaitPrefersFinished pins the owner's read: a finished Call answers
// even when the caller's context is already done.
func TestWaitPrefersFinished(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New[string]()
	if _, err := c.Wait(ctx); err == nil {
		t.Fatal("unfinished Call ignored a done context")
	}
	c.Finish("v")
	for i := 0; i < 100; i++ {
		if v, err := c.Wait(ctx); err != nil || v != "v" {
			t.Fatalf("finished Call read (%q, %v), want (v, nil)", v, err)
		}
	}
}
