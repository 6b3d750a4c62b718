// Example kvstore: the sharded transactional key-value store — byte
// values on the typed core, int64 counters on the zero-cost
// specialization, cross-shard transactions, the lock-free mixed-mode fast
// path, and the §5 privatization/publication idioms at the store level.
package main

import (
	"fmt"

	"modtx/internal/kv"
	"modtx/internal/stm"
)

func main() {
	// 8 shards, each backed by its own STM instance on the tl2 snapshot
	// engine — invisible reads make the read-only paths (Get, MGet, View)
	// lock-free. Any registered engine works: stm.ParseEngine("eager"), …
	store := kv.New(kv.WithShards(8), kv.WithEngine(stm.TL2))

	// Values are arbitrary byte strings end-to-end.
	_ = store.Set("user:alice", []byte(`{"name":"Alice","plan":"pro"}`))
	_ = store.Set("user:bob", []byte(`{"name":"Bob","plan":"free"}`))

	// Counters ride the int64 specialization: no boxing on the hot path.
	_, _ = store.CounterAdd("balance:alice", 100)
	_, _ = store.CounterAdd("balance:bob", 100)

	// Cross-key updates run as ONE transaction two-phased across the
	// shards touched: no consistent reader can see the money in flight.
	err := store.Update([]string{"balance:alice", "balance:bob"}, func(t *kv.Txn) error {
		t.Add("balance:alice", -30)
		t.Add("balance:bob", +30)
		return nil
	})
	fmt.Println("transfer err:", err)

	// MGet is a consistent cross-shard snapshot; counters read as decimal.
	snap, _ := store.MGet("balance:alice", "balance:bob", "user:alice")
	fmt.Printf("snapshot: alice=%s bob=%s profile=%s\n",
		snap["balance:alice"], snap["balance:bob"], snap["user:alice"])

	// View is the general read-only transaction: a multi-key snapshot
	// consistent across shards that never takes write locks (and, on tl2,
	// keeps no read set when the footprint is one shard).
	var totalBalance int64
	_ = store.View([]string{"balance:alice", "balance:bob"}, func(v *kv.ViewTxn) error {
		a, _ := v.Counter("balance:alice")
		b, _ := v.Counter("balance:bob")
		totalBalance = a + b
		return nil
	})
	fmt.Println("conserved total:", totalBalance)

	// FastGet is the plain (non-transactional) mixed-mode read: lock-free,
	// but — per the paper's implementation model — allowed to miss a
	// logically-committed-but-unwritten value on the lazy engine.
	v, _ := store.FastGet("user:alice")
	fmt.Println("fast read alice:", string(v))
	bal, _ := store.FastCounterGet("balance:alice")
	fmt.Println("fast counter read alice:", bal)

	// Privatization: fence the owning shards, then use plain access on the
	// returned typed handles without racing transactional writeback (§5).
	vars, err := store.Privatize("user:alice")
	if err != nil {
		panic(err)
	}
	doc := vars[0].Load()
	vars[0].Store(append(append([]byte(nil), doc...), " //audited"...))
	fmt.Println("after privatized edit:", string(vars[0].Load()))

	// Publication: plain writes become visible to transactional readers
	// through a sentinel transaction per shard — safe by construction.
	_ = store.Publish(map[string][]byte{"user:carol": []byte(`{"name":"Carol"}`)})
	c, _, _ := store.Get("user:carol")
	fmt.Println("published carol:", string(c))

	// Delete writes "absent" over the value transactionally, then unlinks
	// the entry; the freed key can come back with a different kind.
	existed, _ := store.Delete("user:bob")
	_, stillThere := store.FastGet("user:bob")
	fmt.Printf("deleted bob: %v (visible after: %v)\n", existed, stillThere)

	fmt.Println(store.Stats())
}
