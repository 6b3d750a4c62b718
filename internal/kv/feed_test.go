package kv

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"modtx/internal/wal"
)

// collect drains events from sub until want events with the prefix
// arrived or the timeout fired.
func collect(t *testing.T, sub *Subscription, want int) []Event {
	t.Helper()
	var evs []Event
	deadline := time.After(5 * time.Second)
	for len(evs) < want {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("feed closed after %d/%d events", len(evs), want)
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", len(evs), want)
		}
	}
	return evs
}

func TestSubscribeDeliversCommits(t *testing.T) {
	s := New(WithShards(2))
	sub := s.Subscribe(context.Background(), "")
	defer sub.Close()

	if err := s.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CounterAdd("c", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, sub, 3)
	byKey := map[string][]Event{}
	for _, ev := range evs {
		byKey[ev.Key] = append(byKey[ev.Key], ev)
	}
	a := byKey["a"]
	if len(a) != 2 || a[0].Kind != wal.KindSet || string(a[0].Val) != "1" || a[1].Kind != wal.KindDelete {
		t.Fatalf("a events: %+v", a)
	}
	if a[0].Seq >= a[1].Seq {
		t.Fatalf("same-key events out of order: %+v", a)
	}
	c := byKey["c"]
	if len(c) != 1 || c[0].Kind != wal.KindCounterSet || c[0].N != 5 {
		t.Fatalf("c events: %+v", c)
	}
}

func TestSubscribePrefixFilter(t *testing.T) {
	s := New(WithShards(2))
	sub := s.Subscribe(context.Background(), "user:")
	defer sub.Close()

	if err := s.Set("user:1", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("order:1", []byte("widget")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("user:2", []byte("bob")); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, sub, 2)
	for _, ev := range evs {
		if ev.Key != "user:1" && ev.Key != "user:2" {
			t.Fatalf("event outside prefix: %+v", ev)
		}
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected extra event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestSubscribePerShardOrder pins the ordering contract: each
// subscriber sees one shard's events in dense commit-sequence order.
func TestSubscribePerShardOrder(t *testing.T) {
	s := New(WithShards(4))
	// A generous buffer so nothing drops and order is fully checkable.
	sub := s.SubscribeBuffer(context.Background(), "", 1<<14)
	defer sub.Close()

	const writers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.CounterAdd(fmt.Sprintf("k%d", w%4), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	evs := collect(t, sub, writers*each)
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events despite the large buffer", sub.Dropped())
	}
	lastSeq := map[int]uint64{}
	for _, ev := range evs {
		if ev.Seq <= lastSeq[ev.Shard] {
			t.Fatalf("shard %d seq %d after %d", ev.Shard, ev.Seq, lastSeq[ev.Shard])
		}
		lastSeq[ev.Shard] = ev.Seq
	}
}

func TestSubscribeOverflowDropsAndCounts(t *testing.T) {
	s := New(WithShards(1))
	sub := s.SubscribeBuffer(context.Background(), "", 1)
	defer sub.Close()

	const n = 64
	for i := 0; i < n; i++ {
		// Nobody drains: everything past the single slot must drop
		// without ever blocking the committer.
		if err := s.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := len(sub.Events()) // buffered, undelivered
	dropped := sub.Dropped()
	if got+int(dropped) != n {
		t.Fatalf("buffered %d + dropped %d != %d written", got, dropped, n)
	}
	if dropped == 0 {
		t.Fatal("expected drops with a 1-slot buffer and no consumer")
	}
	if s.WALStats().ChangefeedDropped != dropped {
		t.Fatalf("store-level dropped %d, subscription %d", s.WALStats().ChangefeedDropped, dropped)
	}
}

func TestSubscribeContextCancel(t *testing.T) {
	s := New(WithShards(1))
	ctx, cancel := context.WithCancel(context.Background())
	sub := s.Subscribe(ctx, "")
	cancel()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				// Closed; the subscription must also be unregistered.
				if st := s.WALStats(); st.Subscribers != 0 {
					t.Fatalf("still registered: %+v", st)
				}
				return
			}
		case <-deadline:
			t.Fatal("events channel never closed after cancellation")
		}
	}
}

func TestSubscribeCloseConcurrentWithCommits(t *testing.T) {
	s := New(WithShards(2))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Set("k", []byte("v"))
			}
		}
	}()
	// Churn subscriptions while commits fan out: Close racing deliver
	// must neither panic (send on closed channel) nor deadlock.
	for i := 0; i < 200; i++ {
		sub := s.SubscribeBuffer(context.Background(), "", 4)
		sub.Close()
	}
	close(stop)
	wg.Wait()
}

// TestSubscribeWithDurability checks the two tap consumers compose:
// the same commit both logs and feeds, with matching sequences.
func TestSubscribeWithDurability(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, wal.Fsync)
	defer s.Close()
	sub := s.Subscribe(context.Background(), "")
	defer sub.Close()

	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	evs := collect(t, sub, 1)
	if evs[0].Seq == 0 {
		t.Fatalf("unsequenced event: %+v", evs[0])
	}
	if st := s.WALStats(); st.Appends == 0 {
		t.Fatalf("commit fed the subscriber but not the log: %+v", st)
	}
}
