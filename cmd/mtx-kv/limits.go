// Server overload protection: connection and admission limits that keep
// an overloaded or misbehaving client population from taking the store
// down with it.
//
// Three independent valves, each opt-in via a serve/replica flag:
//
//   - -maxconns caps simultaneous connections with accept backpressure:
//     when the house is full the server simply stops accepting, so
//     excess dials queue in the kernel's listen backlog (and time out
//     there) instead of each costing a goroutine and a read buffer.
//   - -maxinflight caps concurrently executing store commands. The cap
//     is enforced at dispatch with a token channel: a command that
//     cannot get a token is refused with "ERR overloaded" immediately —
//     shedding load at the door is what keeps latency bounded for the
//     commands that do get in. Parked blocking commands (BGET/WATCH)
//     hold their token while they wait: a thousand parked waiters ARE
//     load, and admission is the only thing that bounds them.
//   - -idletimeout drops connections that send nothing for the duration
//     (and bounds how long a write to a stalled client may block).
//     The deadline is re-armed per wakeup only once it has aged a
//     quarter of the timeout, and is set a quarter long to make up for
//     it: a silent connection goes between 1 and 1.25 timeouts after
//     its last byte, never sooner. SUBSCRIBE streams are exempt by
//     design: a quiet subscriber is normal.
//
// Shed commands are counted (mtxkv_shed_total in /metrics) — refusing
// work silently would make an overload look like a traffic drop.
package main

import (
	"flag"
	"sync/atomic"
	"time"
)

// defaultMaxReq bounds a request line when -maxreq is not given.
const defaultMaxReq = 1 << 20

// limits is the server's overload-protection state, embedded in server.
type limits struct {
	maxConns    int           // simultaneous connections; 0 = unlimited
	maxInflight int           // concurrently executing store commands; 0 = unlimited
	idle        time.Duration // idle read/write deadline; 0 = none
	maxReq      int           // request line byte cap; 0 = defaultMaxReq
	blockCap    time.Duration // BGET/WATCH timeout cap; 0 = maxBlockTimeout

	inflight chan struct{} // admission tokens, sized maxInflight
	shed     atomic.Uint64 // commands refused with ERR overloaded
	panics   atomic.Uint64 // connection handlers recovered from a panic
}

// limitFlags registers the overload-protection flags shared by serve
// and replica on fs, returning a function that builds the limits from
// the parsed values.
func limitFlags(fs *flag.FlagSet) func() limits {
	maxConns := fs.Int("maxconns", 0,
		"maximum simultaneous client connections; excess dials wait in the listen backlog (0 = unlimited)")
	maxInflight := fs.Int("maxinflight", 0,
		"maximum concurrently executing store commands; excess answer ERR overloaded (0 = unlimited)")
	idle := fs.Duration("idletimeout", 0,
		"drop connections idle this long, and bound stalled writes the same way (0 = never); SUBSCRIBE reads are exempt")
	maxReq := fs.Int("maxreq", defaultMaxReq,
		"maximum request line bytes; longer requests answer ERR request too large and disconnect")
	return func() limits {
		return limits{maxConns: *maxConns, maxInflight: *maxInflight, idle: *idle, maxReq: *maxReq}
	}
}

// initLimits materializes the token channel; called once before serving.
func (s *server) initLimits() {
	if s.maxInflight > 0 && s.inflight == nil {
		s.inflight = make(chan struct{}, s.maxInflight)
	}
}

// reqCap returns the effective request line cap.
func (s *server) reqCap() int {
	if s.maxReq > 0 {
		return s.maxReq
	}
	return defaultMaxReq
}

// blockTimeoutCap returns the effective BGET/WATCH timeout ceiling.
func (s *server) blockTimeoutCap() time.Duration {
	if s.blockCap > 0 {
		return s.blockCap
	}
	return maxBlockTimeout
}

// admissionExempt reports verbs that bypass the in-flight cap: they run
// no store transaction (PING, QUIT) or are the observability surface an
// operator needs most while the server is overloaded (STATS).
func admissionExempt(v verb) bool {
	return v == verbPing || v == verbQuit || v == verbStats
}

// execAdmitted is exec behind the admission valve: non-exempt commands
// must take an in-flight token or are shed with "ERR overloaded".
func (c *session) execAdmitted(reply []byte, v verb, cmd, args []byte) (resp []byte, quit bool) {
	if s := c.s; s.inflight != nil && !admissionExempt(v) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.shed.Add(1)
			return append(reply, "ERR overloaded"...), false
		}
	}
	return c.exec(reply, v, cmd, args)
}
