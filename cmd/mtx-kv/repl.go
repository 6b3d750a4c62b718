// The replica role: mtx-kv replica dials a primary's -replicate-addr
// and applies the shipped WAL to a local in-memory store while serving
// the read side of the line protocol (GET/FGET/MGET/BGET/WATCH/
// SUBSCRIBE/STATS). Mutating commands are rejected with "ERR read-only
// replica": replication applies the primary's records by absolute
// sequence, so a local write would fork the replica from the primary's
// history.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/stm"
)

func runReplica(args []string) error {
	fs := flag.NewFlagSet("replica", flag.ExitOnError)
	primary := fs.String("primary", "",
		"primary's replication address (its serve -replicate-addr); required")
	addr := fs.String("addr", ":7701", "listen address for read traffic")
	engineName := fs.String("engine", "lazy", engineFlagHelp())
	adminAddr := fs.String("admin", "",
		"admin plane listen address (/metrics, /debug/pprof, /debug/vars, /healthz); empty disables")
	slowTxn := fs.Duration("slowtxn", 0,
		"log commands slower than this threshold via slog (0 disables)")
	lim := limitFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *primary == "" {
		return errors.New("-primary is required")
	}
	engine, err := stm.ParseEngine(*engineName)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := kv.NewReplica(kv.WithShards(defaultShards), kv.WithEngine(engine))
	if err != nil {
		return err
	}
	client := &cluster.Client{Addr: *primary, Replica: r, Logf: func(format string, args ...any) {
		slog.Info(fmt.Sprintf(format, args...))
	}}
	srv := &server{store: r.Store(), slow: *slowTxn, readonly: true, repl: client, replica: r, limits: lim()}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		r.Store().Close()
		return err
	}
	if err := startAdmin(srv, *adminAddr); err != nil {
		r.Store().Close()
		return err
	}
	go func() {
		if err := client.Run(ctx); err != nil && ctx.Err() == nil {
			slog.Error("replication stream exited", "err", err)
		}
	}()
	fmt.Printf("mtx-kv: replica of %s (%d shards, %s engine) serving reads on %s\n",
		*primary, r.Shards(), engine, l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	err = serveUntil(srv, l, sig)
	cancel() // stop the stream after the readers are drained
	return err
}

// replStats builds the STATS REPL document for whichever replication
// role this process plays.
func (s *server) replStats() any {
	switch {
	case s.streamer != nil:
		return s.streamer.Stats()
	case s.replica != nil:
		// One flat JSON object: the connection state and the apply
		// progress (the embedded structs have disjoint field names).
		return struct {
			cluster.ClientStats
			kv.ReplicaStats
		}{s.repl.Stats(), s.replica.Stats()}
	default:
		return map[string]string{"role": "none"}
	}
}

// renderReplMetrics appends the replication gauges to the Prometheus
// exposition for whichever role the process plays; no-op without one.
func renderReplMetrics(b []byte, srv *server) []byte {
	if srv.streamer != nil {
		st := srv.streamer.Stats()
		b = append(b, "# HELP mtxkv_repl_sessions Connected replica sessions.\n"...)
		b = append(b, "# TYPE mtxkv_repl_sessions gauge\nmtxkv_repl_sessions "...)
		b = strconv.AppendInt(b, st.Connected, 10)
		b = append(b, '\n')
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"mtxkv_repl_sessions_total", "Replica sessions ever served.", st.Served},
			{"mtxkv_repl_records_total", "Record frames shipped to replicas.", st.Records},
			{"mtxkv_repl_snapshots_total", "Snapshot transfers shipped to replicas.", st.Snapshots},
		} {
			b = append(b, "# HELP "+c.name+" "+c.help+"\n# TYPE "+c.name+" counter\n"+c.name+" "...)
			b = strconv.AppendUint(b, c.v, 10)
			b = append(b, '\n')
		}
	}
	if srv.replica != nil {
		rs := srv.replica.Stats()
		b = append(b, "# HELP mtxkv_replica_watermark Applied primary commit sequence (LSN).\n"...)
		b = append(b, "# TYPE mtxkv_replica_watermark gauge\nmtxkv_replica_watermark "...)
		b = strconv.AppendUint(b, rs.Watermark, 10)
		b = append(b, "\n# HELP mtxkv_replica_applied_total Records applied.\n"...)
		b = append(b, "# TYPE mtxkv_replica_applied_total counter\nmtxkv_replica_applied_total "...)
		b = strconv.AppendUint(b, rs.Applied, 10)
		b = append(b, "\n# HELP mtxkv_replica_xapplied_total Records applied that wrote more than one shard.\n"...)
		b = append(b, "# TYPE mtxkv_replica_xapplied_total counter\nmtxkv_replica_xapplied_total "...)
		b = strconv.AppendUint(b, rs.XApplied, 10)
		b = append(b, "\n# HELP mtxkv_replica_pending Records held back (always 0: records apply in order as they arrive).\n"...)
		b = append(b, "# TYPE mtxkv_replica_pending gauge\nmtxkv_replica_pending "...)
		b = strconv.AppendInt(b, int64(rs.Pending), 10)
		b = append(b, "\n# HELP mtxkv_replica_ready Caught up to the handshake-time primary positions (1 = ready).\n"...)
		b = append(b, "# TYPE mtxkv_replica_ready gauge\nmtxkv_replica_ready "...)
		if rs.Ready {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
		b = append(b, '\n')
	}
	return b
}
