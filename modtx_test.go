package modtx_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"modtx"
)

// TestFacadeModelLayer exercises the re-exported model API end to end:
// build Example 2.1, check it, parse and enumerate the privatization
// program.
func TestFacadeModelLayer(t *testing.T) {
	b := modtx.NewBuilder("x", "y")
	t1 := b.Thread()
	t1.Begin("a")
	t1.R("y", 0)
	wx1 := t1.W("x", 1)
	t1.Commit()
	t2 := b.Thread()
	t2.Begin("b")
	t2.W("y", 1)
	t2.Commit()
	wx2 := t2.W("x", 2)
	b.WWOrder("x", wx1, wx2)
	x := b.MustBuild()

	if vs := modtx.WellFormed(x); len(vs) != 0 {
		t.Fatalf("not well-formed: %v", vs)
	}
	if v := modtx.Check(x, modtx.Programmer); !v.Consistent {
		t.Fatalf("Example 2.1 inconsistent: %v", v)
	}
	if v := modtx.Check(x, modtx.Implementation); !v.Consistent {
		t.Fatalf("implementation model rejects Example 2.1: %v", v)
	}

	p, err := modtx.ParseProgram(`
name: privatization
locs: x y
thread t1:
  atomic a {
    r := y
    if !r { x := 1 }
  }
thread t2:
  atomic b { y := 1 }
  x := 2
`)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := modtx.Outcomes(p, modtx.Programmer)
	if err != nil {
		t.Fatal(err)
	}
	for key, o := range outs {
		if o.Mem["x"] != 2 {
			t.Errorf("programmer model allowed %s", key)
		}
	}
	allowed, err := modtx.Allowed(p, modtx.Implementation, func(o *modtx.Outcome) bool {
		return o.Mem["x"] == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if !allowed {
		t.Error("implementation model must allow x=1")
	}

	ts, err := modtx.GenerateTraces(p, modtx.Programmer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if checked, cexs := ts.CheckTheorem41(nil); len(cexs) > 0 {
		t.Fatalf("SC-LTRF counterexample (checked %d): %v", checked, cexs[0])
	}
}

// TestFacadeRuntimeLayer exercises the re-exported v2 STM API: functional
// options, the int64 specialization, typed vars and the error taxonomy.
func TestFacadeRuntimeLayer(t *testing.T) {
	for _, e := range modtx.Engines() {
		s := modtx.NewSTM(modtx.WithEngine(e))
		x := s.NewVar("x", 0)
		label := modtx.NewTVar(s, "label", "init")
		if err := s.Atomically(func(tx *modtx.Tx) error {
			tx.Write(x, tx.Read(x)+41)
			modtx.WriteT(tx, label, modtx.ReadT(tx, label)+"+done")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Atomically(func(tx *modtx.Tx) error {
			tx.Write(x, 0)
			return modtx.ErrAborted
		}); err != modtx.ErrAborted {
			t.Fatalf("err = %v", err)
		}
		x.Store(x.Load() + 1)
		s.Quiesce(x)
		if got := x.Load(); got != 42 {
			t.Errorf("x = %d, want 42", got)
		}
		if got := label.Load(); got != "init+done" {
			t.Errorf("label = %q, want init+done", got)
		}
	}
	// Context-aware execution and diagnostics through the facade.
	s := modtx.NewSTM(modtx.WithMaxRetries(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.AtomicallyCtx(ctx, func(tx *modtx.Tx) error { return nil })
	if !errors.Is(err, modtx.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var txe *modtx.TxError
	if !errors.As(err, &txe) {
		t.Fatalf("err %T lacks TxError diagnostics", err)
	}
}

// TestFacadeContainersAndKV exercises the byte-valued KV store, the
// facade's one keyed container, through its re-exports.
func TestFacadeContainersAndKV(t *testing.T) {
	store := modtx.NewKV(modtx.KVWithShards(4), modtx.KVWithEngine(modtx.LazySTM))
	if err := store.Set("doc", []byte("payload with spaces")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := store.Get("doc"); !ok || string(v) != "payload with spaces" {
		t.Fatalf("kv get: %q %v", v, ok)
	}
	if _, err := store.CounterAdd("hits", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CounterAdd("doc", 1); !errors.Is(err, modtx.ErrKVWrongType) {
		t.Fatalf("wrong-type err = %v", err)
	}
}

// TestFacadeEngineRegistryAndReadOnly exercises the registry and the
// read-only transaction re-exports end to end.
func TestFacadeEngineRegistryAndReadOnly(t *testing.T) {
	e, err := modtx.ParseEngine("lazy")
	if err != nil || e != modtx.LazySTM {
		t.Fatalf("ParseEngine(lazy) = %v, %v", e, err)
	}
	if len(modtx.Engines()) != len(modtx.EngineNames()) {
		t.Fatal("Engines/EngineNames length mismatch")
	}

	s := modtx.NewSTM(modtx.WithEngine(modtx.LazySTM))
	x := s.NewVar("x", 7)
	label := modtx.NewTVar(s, "label", "snap")
	var got int64
	var lbl string
	if err := s.AtomicallyRead(func(r *modtx.ReadTx) error {
		got = r.Read(x)
		lbl = modtx.ReadTVar(r, label)
		return nil
	}); err != nil || got != 7 || lbl != "snap" {
		t.Fatalf("AtomicallyRead: %v, x=%d label=%q", err, got, lbl)
	}

	s2 := modtx.NewSTM(modtx.WithEngine(modtx.LazySTM))
	y := s2.NewVar("y", 3)
	var sum int64
	if err := modtx.AtomicallyReadMulti([]*modtx.STM{s, s2}, func(rtxs []*modtx.ReadTx) error {
		sum = rtxs[0].Read(x) + rtxs[1].Read(y)
		return nil
	}); err != nil || sum != 10 {
		t.Fatalf("AtomicallyReadMulti: %v, sum=%d", err, sum)
	}

	// KV: View and Delete through the facade.
	store := modtx.NewKV(modtx.KVWithShards(4), modtx.KVWithEngine(modtx.LazySTM))
	if err := store.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CounterAdd("n", 5); err != nil {
		t.Fatal(err)
	}
	var av []byte
	var nv int64
	if err := store.View([]string{"a", "n"}, func(v *modtx.KVViewTxn) error {
		av, _ = v.Get("a")
		nv, _ = v.Counter("n")
		return nil
	}); err != nil || string(av) != "1" || nv != 5 {
		t.Fatalf("View: %v, a=%q n=%d", err, av, nv)
	}
	if ok, err := store.Delete("a"); err != nil || !ok {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if _, ok, _ := store.Get("a"); ok {
		t.Fatal("deleted key still visible")
	}
}

// TestFacadeBlocking exercises the blocking surface through the facade:
// Tx.Block on the STM, WaitGet/Watch on the KV store.
func TestFacadeBlocking(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s := modtx.NewSTM(modtx.WithEngine(modtx.LazySTM))
	mail := s.NewVar("mail", 0)
	got := make(chan int64, 1)
	go func() {
		var v int64
		err := s.AtomicallyCtx(ctx, func(tx *modtx.Tx) error {
			if v = tx.Read(mail); v == 0 {
				tx.Block()
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	for s.Snapshot().Waits == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if err := s.Atomically(func(tx *modtx.Tx) error {
		tx.Write(mail, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("Block woke to %d", v)
		}
	case <-ctx.Done():
		t.Fatal("Tx.Block lost the wakeup")
	}

	store := modtx.NewKV(modtx.KVWithShards(4))
	vc := make(chan []byte, 1)
	go func() {
		v, err := store.WaitGet(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		vc <- v
	}()
	for store.Stats().Waits == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if err := store.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-vc:
		if string(v) != "v" {
			t.Fatalf("WaitGet = %q", v)
		}
	case <-ctx.Done():
		t.Fatal("WaitGet lost the wakeup")
	}
	if st := store.Stats(); st.Waits == 0 || st.Wakeups == 0 {
		t.Fatalf("blocking counters not surfaced: %+v", st)
	}
}

// TestFacadeDurability exercises the durability surface through the
// facade: OpenKV with a write-ahead log, a prefix changefeed, WAL
// statistics, and recovery on reopen.
func TestFacadeDurability(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()

	store, err := modtx.OpenKV(modtx.KVWithShards(4),
		modtx.KVWithDurability(dir, modtx.WALFsync))
	if err != nil {
		t.Fatal(err)
	}
	sub := store.Subscribe(ctx, "user:")
	if err := store.Set("user:1", []byte("ada")); err != nil {
		t.Fatal(err)
	}
	if err := store.Set("other", []byte("filtered")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		var got modtx.KVEvent = ev
		if got.Key != "user:1" || string(got.Val) != "ada" {
			t.Fatalf("event = %+v", got)
		}
	case <-ctx.Done():
		t.Fatal("changefeed delivered nothing")
	}
	sub.Close()

	var ws modtx.KVWALStats = store.WALStats()
	if ws.Level != modtx.WALFsync.String() || ws.Appends < 2 {
		t.Fatalf("WALStats = %+v", ws)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := modtx.OpenKV(modtx.KVWithShards(4),
		modtx.KVWithDurability(dir, modtx.WALBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if v, ok, _ := reopened.Get("user:1"); !ok || string(v) != "ada" {
		t.Fatalf("recovered get = %q %v", v, ok)
	}
}
