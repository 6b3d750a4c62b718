package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"modtx/internal/kv"
	"modtx/internal/wal"
)

// The client arms its read deadline per socket read. A primary that
// goes silent inside a frame must time the session out; a primary that
// streams steadily must not, even when no socket read ever ends on a
// frame boundary (so the client's buffer is never empty between
// frames).

// shortReadTimeout shortens readTimeout for one test.
func shortReadTimeout(t *testing.T, d time.Duration) {
	old := readTimeout
	readTimeout = d
	t.Cleanup(func() { readTimeout = old })
}

// fakePrimary accepts one replica on a loopback listener, trades
// hellos (its position is 0), and hands the connection to serve.
func fakePrimary(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Write(AppendHello(nil, 0)); err != nil {
			return
		}
		if _, err := ReadHello(conn); err != nil {
			return
		}
		serve(conn)
	}()
	return ln.Addr().String()
}

// recordFrames returns one record frame for each of seqs 1..n, each a
// Set of its own key.
func recordFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		seq := uint64(i + 1)
		rec, err := wal.AppendRecord(nil, 0, seq, []wal.Op{{Kind: wal.KindSet, Key: fmt.Sprintf("k%03d", seq), Val: []byte("streamed value")}})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = AppendFrame(nil, FrameRecord, 0, rec)
	}
	return frames
}

// runSession runs one client session against addr into a fresh replica.
func runSession(t *testing.T, addr string) (*kv.Replica, time.Duration, error) {
	t.Helper()
	r, err := kv.NewReplica(kv.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Store().Close() })
	c := &Client{Addr: addr, Replica: r}
	start := time.Now()
	err = c.session(context.Background())
	return r, time.Since(start), err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestClientTimesOutMidFrame: a burst of frames, then half of one, then
// silence. The session ends with a timeout about readTimeout after the
// last byte.
func TestClientTimesOutMidFrame(t *testing.T) {
	shortReadTimeout(t, 250*time.Millisecond)
	frames := recordFrames(t, 20)
	addr := fakePrimary(t, func(conn net.Conn) {
		var burst []byte
		for _, f := range frames[:19] {
			burst = append(burst, f...)
		}
		burst = append(burst, AppendFrame(nil, FramePing, 0, nil)...)
		burst = append(burst, frames[19][:len(frames[19])/2]...)
		if _, err := conn.Write(burst); err != nil {
			return
		}
		io.Copy(io.Discard, conn) // silent until the client hangs up
	})
	r, took, err := runSession(t, addr)
	if !isTimeout(err) {
		t.Fatalf("session ended with %v after %v, want a timeout", err, took)
	}
	if took < readTimeout || took > readTimeout+time.Second {
		t.Fatalf("timed out after %v, want about %v", took, readTimeout)
	}
	if r.Position() != 19 {
		t.Fatalf("replica at %d, want the burst's 19 records", r.Position())
	}
}

// TestClientSteadyStreamNoTimeout: the primary streams for three read
// timeouts, one write every readTimeout/10, and every write ends in the
// middle of a frame. The session must run until the primary hangs up.
// A client that re-armed its deadline only when its buffer was empty
// would never re-arm here, and would time out after one readTimeout.
func TestClientSteadyStreamNoTimeout(t *testing.T) {
	// A full second, so that only a client that fails to re-arm times
	// out, not one that a loaded host stalls for a moment.
	shortReadTimeout(t, time.Second)
	const stream = 3
	frames := recordFrames(t, 200)
	sentc := make(chan int, 1)
	addr := fakePrimary(t, func(conn net.Conn) {
		sent := 0
		defer func() { sentc <- sent }()
		deadline := time.Now().Add(stream * readTimeout)
		// Each write is the second half of one frame and the first half
		// of the next.
		rest := frames[0][:0]
		for i := 0; i < len(frames) && time.Now().Before(deadline); i++ {
			half := len(frames[i]) / 2
			if _, err := conn.Write(append(rest[:len(rest):len(rest)], frames[i][:half]...)); err != nil {
				return
			}
			rest = frames[i][half:]
			sent = i + 1
			time.Sleep(readTimeout / 10)
		}
		// End on a frame boundary, with a ping.
		conn.Write(append(rest[:len(rest):len(rest)], AppendFrame(nil, FramePing, 0, nil)...))
	})
	r, took, err := runSession(t, addr)
	if isTimeout(err) || !errors.Is(err, io.EOF) {
		t.Fatalf("session ended with %v after %v, want the primary's EOF", err, took)
	}
	if took < stream*readTimeout {
		t.Fatalf("session ended after %v, before the primary's %v of streaming", took, stream*readTimeout)
	}
	if sent := <-sentc; r.Position() != uint64(sent) {
		t.Fatalf("replica at %d, want all %d records sent", r.Position(), sent)
	}
}
