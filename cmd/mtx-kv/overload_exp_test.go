package main

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modtx/internal/kv"
)

// TestOverloadExperiment is a measurement run, not an assertion suite:
// it saturates a -maxinflight 8 server with 64 clients of parked
// blocking reads and logs served/shed counts and exempt-verb latency.
func TestOverloadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement run")
	}
	srv := &server{
		store:  kv.New(kv.WithShards(16)),
		limits: limits{maxInflight: 8},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.serve(l)

	const clients = 64
	var served, shedded atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn.Write([]byte("BGET nokey 20\n"))
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				switch strings.TrimRight(line, "\n") {
				case "TIMEOUT":
					served.Add(1)
				case "ERR overloaded":
					shedded.Add(1)
				}
			}
		}()
	}

	// Exempt-verb latency during the storm, from its own connection.
	pconn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	pr := bufio.NewReader(pconn)
	time.Sleep(500 * time.Millisecond) // let the storm build
	var pings int
	var worst time.Duration
	pingDeadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(pingDeadline) {
		start := time.Now()
		pconn.Write([]byte("PING\n"))
		if line, err := pr.ReadString('\n'); err != nil || line != "PONG\n" {
			t.Fatalf("PING during storm: %q %v", line, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		pings++
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Recovery: with the storm gone, a store command is served at once.
	start := time.Now()
	pconn.Write([]byte("SET x back\n"))
	if line, _ := pr.ReadString('\n'); line != "OK\n" {
		t.Fatalf("SET after storm: %q", line)
	}
	t.Logf("overload: clients=%d maxinflight=%d served=%d shed=%d (%.1f%% shed) srv.shed=%d",
		clients, srv.maxInflight, served.Load(), shedded.Load(),
		100*float64(shedded.Load())/float64(served.Load()+shedded.Load()), srv.shed.Load())
	t.Logf("exempt PING during storm: %d pings, worst %v; first SET after storm: %v",
		pings, worst, time.Since(start))
}
