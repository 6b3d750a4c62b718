package main

import (
	"bytes"
	"fmt"
	"time"

	"modtx/internal/cluster"
	"modtx/internal/kv"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// Direct probes: tight single-goroutine loops over one public function
// of a layer, with nothing else running. They give the cost of a
// layer's unit of work that a workload's spans cannot isolate (a kv.Set
// span contains its STM commit; the probe says how much of it that is).
// Each probe runs probeBatches batches, each recorded as one span, and
// reports the median batch's time per call, so one preempted batch does
// not move the number.

const probeBatches = 5

// runProbes, on a traced run, fills the probe metrics and returns the
// probes' spans; an untraced run has neither. cfg.scale shrinks the
// iteration counts (the smoke test runs at a small fraction).
func runProbes(r *result, cfg runConfig) (*tracer, error) {
	if !cfg.traced {
		return nil, nil
	}
	tr := newTracer(time.Now(), numProbes*probeBatches)
	return tr, probeInto(tr, r, cfg.scale)
}

func probeInto(tr *tracer, r *result, scale float64) error {
	iters := func(n int) int { return max(1, int(float64(n)*scale)) }
	// set times fn, which must make n calls, probeBatches times.
	set := func(name string, span uint16, n int, fn func() error) error {
		per := make([]float64, probeBatches)
		for b := range per {
			t0 := tr.now()
			if err := fn(); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			t1 := tr.now()
			tr.add(span, t0, t1, -1, uint32(b))
			per[b] = float64(t1-t0) / float64(n)
		}
		r.set(name, median(per))
		return nil
	}

	// stm: the shipped default engine and clock (stm.New with no option).
	s1, s2 := stm.New(), stm.New()
	v1, v2 := s1.NewVar("p1", 0), s2.NewVar("p2", 0)
	var r4 [4]*stm.Var
	for i := range r4 {
		r4[i] = s1.NewVar(fmt.Sprintf("r%d", i), int64(i))
	}
	n := iters(200_000)
	write1 := func(tx *stm.Tx) error { tx.Write(v1, tx.Read(v1)+1); return nil }
	if err := set("stm.probe_atomically_1w_ns", spanProbeStm1W, n, func() error {
		for i := 0; i < n; i++ {
			if err := s1.Atomically(write1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var sink int64
	read4 := func(tx *stm.ReadTx) error {
		sink = tx.Read(r4[0]) + tx.Read(r4[1]) + tx.Read(r4[2]) + tx.Read(r4[3])
		return nil
	}
	if err := set("stm.probe_read4_ns", spanProbeStmRead4, n, func() error {
		for i := 0; i < n; i++ {
			if err := s1.AtomicallyRead(read4); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if sink != 6 {
		return fmt.Errorf("probe stm.read4: read %d, want 6", sink)
	}
	pair := []*stm.STM{s1, s2}
	multi2 := func(txs []*stm.Tx) error {
		txs[0].Write(v1, txs[0].Read(v1)-1)
		txs[1].Write(v2, txs[1].Read(v2)+1)
		return nil
	}
	n = iters(100_000)
	if err := set("stm.probe_multi2_ns", spanProbeStmMulti2, n, func() error {
		for i := 0; i < n; i++ {
			if err := stm.AtomicallyMulti(pair, multi2); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// wal: encode and decode one record shaped like the workloads'
	// writes — a single SET of a 13-byte key and a 128-byte value.
	ops := []wal.Op{{Kind: wal.KindSet, Key: "user:00000042", Val: newValue()}}
	var enc []byte
	n = iters(200_000)
	if err := set("wal.probe_encode_ns", spanProbeWalEncode, n, func() (err error) {
		for i := 0; i < n; i++ {
			if enc, err = wal.AppendRecord(enc[:0], 3, uint64(i+1), ops); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := set("wal.probe_decode_ns", spanProbeWalDecode, n, func() error {
		for i := 0; i < n; i++ {
			if _, _, err := wal.DecodeRecord(enc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// cluster: frame one encoded record and read it back.
	var frame, fbuf []byte
	rd := bytes.NewReader(nil)
	if err := set("cluster.probe_frame_ns", spanProbeFrame, n, func() (err error) {
		for i := 0; i < n; i++ {
			frame = cluster.AppendFrame(frame[:0], cluster.FrameRecord, 3, enc)
			rd.Reset(frame)
			if _, fbuf, err = cluster.ReadFrame(rd, fbuf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// cluster + kv.Replica: apply a prebuilt batch of single-SET records
	// (dense per-shard sequences over 4096 keys) to a fresh replica in
	// runs of 512, the way the wire client hands over what it has
	// buffered. Only the ApplyRecords calls are timed.
	ks := newKeyspace(4096, 0, 0)
	n = iters(40_000)
	per := make([]float64, probeBatches)
	for b := range per {
		rep, err := kv.NewReplica()
		if err != nil {
			return fmt.Errorf("probe cluster.apply: %w", err)
		}
		seqs := make([]uint64, rep.Shards())
		batch := make([]wal.Record, n)
		val := newValue()
		for i := range batch {
			key := ks.keys[i%len(ks.keys)]
			sh := rep.Store().ShardOf(key)
			seqs[sh]++
			batch[i] = wal.Record{Shard: uint32(sh), Seq: seqs[sh],
				Ops: []wal.Op{{Kind: wal.KindSet, Key: key, Val: val}}}
		}
		t0 := tr.now()
		for lo := 0; lo < n; lo += 512 {
			if err := rep.ApplyRecords(batch[lo:min(lo+512, n)]); err != nil {
				return fmt.Errorf("probe cluster.apply: %w", err)
			}
		}
		t1 := tr.now()
		tr.add(spanProbeApply, t0, t1, -1, uint32(b))
		per[b] = float64(t1-t0) / float64(n)
	}
	r.set("cluster.apply_ns_per_record", median(per))
	return nil
}
