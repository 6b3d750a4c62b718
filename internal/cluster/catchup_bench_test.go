package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"modtx/internal/kv"
	"modtx/internal/wal"
)

// BenchmarkCatchup50k times a cold replica attaching to a primary
// holding 50k committed records, dial to Ready — the full pipeline:
// segment scan, frame batching, wire, the replica's sync (each record
// folded as its frame arrives) and its install, one bulk key creation
// a shard. The guarded regression is quadratic catch-up: per-key
// copy-on-write table growth once made this path ~75x slower. Each
// iteration pays an untimed ~20s preload, so run with -benchtime=1x.
func BenchmarkCatchup50k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		primary, err := kv.Open(kv.WithShards(8), kv.WithDurability(dir, wal.None))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 50_000; j++ {
			if err := primary.Set(fmt.Sprintf("key-%06d", j), []byte("preloaded value")); err != nil {
				b.Fatal(err)
			}
		}
		st, err := NewStreamer(primary)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go st.Serve(ln)
		replica, err := kv.NewReplica(kv.WithShards(8))
		if err != nil {
			b.Fatal(err)
		}
		client := &Client{Addr: ln.Addr().String(), Replica: replica}
		ctx, cancel := context.WithCancel(context.Background())
		go client.Run(ctx)
		b.StartTimer()
		for !replica.Ready() {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		cancel()
		st.Close()
		replica.Store().Close()
		primary.Close()
	}
}
