package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"modtx/internal/kv"
)

// FuzzServerCommand throws arbitrary bytes at the connection handler
// and pins the protocol's crash-safety contract: the handler never
// panics (the per-connection recover would count one), never wedges —
// blocking verbs are capped by blockCap, so any input terminates
// promptly — and everything it writes is newline-terminated, so a
// client can always resynchronize on line boundaries.
//
// The input may contain newlines (several commands), NULs, invalid
// UTF-8, oversized operands — the handler's only legal reactions are a
// reply per command or a clean disconnect.
func FuzzServerCommand(f *testing.F) {
	for _, seed := range []string{
		"PING",
		"GET a",
		"FGET a",
		"SET a some value",
		"SET a",
		"ADD ctr 3",
		"ADD ctr notanumber",
		"DEL a b c",
		"DEL",
		"MGET a b c",
		"MSET x 1 y 2",
		"TXN ADD c1 -1 c2 1",
		"TXN MUL x 2",
		"BGET k 10000",
		"BGET k -5",
		"WATCH k",
		"WATCH k 99999999999999999999",
		"SUBSCRIBE",
		"SUBSCRIBE pre fix extra",
		"STATS",
		"STATS HIST",
		"QUIT",
		"NOPE nope",
		"  \t  ",
		"PING\nGET a\nQUIT",
		"SET \x00 \xff\xfe",
		"get lowercase",
		// Several commands in one read: replies coalesce, CRLF and
		// blank lines between them, a blocking verb and QUIT midway.
		"SET a 1\r\nGET a\r\n\r\nFGET a\r\n",
		"SET a 1\nBGET nokey 1\nGET a\nQUIT\nGET a",
		"PING\nSUBSCRIBE\nPING",
		"SET a v\nGET a\nFGET a\nADD n 1\nADD n x\nMSET x 1 y 2\nMGET a x y z\nTXN ADD p -1 q 1\n" +
			"TXN DEL x\nDEL y\nGET y\nNOPE\nSET\nping\nSTATS\nGET a",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := &server{
			store: kv.New(kv.WithShards(2)),
			// Cap blocking verbs so a fuzzed BGET/WATCH cannot park the
			// iteration; cap request size so giant inputs exercise the
			// too-large path instead of allocating without bound.
			limits: limits{blockCap: 5 * time.Millisecond, maxReq: 1 << 16, maxInflight: 2},
		}
		srv.initLimits()
		client, server := net.Pipe()
		handlerDone := make(chan struct{})
		go func() {
			defer close(handlerDone)
			srv.handleConn(server)
		}()
		// Drain replies concurrently so the handler's writes never block
		// on the unbuffered pipe.
		var out bytes.Buffer
		drainDone := make(chan struct{})
		go func() {
			defer close(drainDone)
			io.Copy(&out, client)
		}()

		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		client.Write(append(data, '\n'))
		client.Close() // the handler sees EOF (or is already gone)

		select {
		case <-handlerDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("handler wedged on %q", data)
		}
		<-drainDone
		if n := srv.panics.Load(); n != 0 {
			t.Fatalf("handler panicked on %q", data)
		}
		if b := out.Bytes(); len(b) > 0 && b[len(b)-1] != '\n' {
			t.Fatalf("reply not newline-terminated on %q: %q", data, b)
		}
	})
}
