// Package modtx reproduces "Modular Transactions: Bounding Mixed Races in
// Space and Time" (Dongol, Jagadeesan, Riely; PPoPP 2019) as a Go library:
//
//   - an executable axiomatic memory model for transactions with
//     mixed-mode access — well-formed traces, lifted relations,
//     happens-before with the paper's design space of extensions, the
//     consistency axioms, and L-race definitions (internal/event,
//     internal/core);
//   - an exhaustive litmus enumerator and the full catalog of the paper's
//     figures and example programs with expected verdicts (internal/prog,
//     internal/exec, internal/litmus);
//   - bounded checkers for the metatheory: SC-LTRF (Theorem 4.1),
//     aborted-transaction removal (Theorem 4.2), the implementation-model
//     correspondence (Lemma 5.1) and the suborder characterizations
//     (Lemmas C.1/C.2) (internal/ltrf);
//   - the §5 compiler-optimization soundness suite (internal/opt);
//   - a production STM runtime with a pluggable engine registry — lazy
//     (buffered writes), eager (undo-log) and global-lock strategies
//     behind one protocol — mixed-mode variables, read-only
//     transactions, quiescence fences, and event-driven blocking: an
//     internal commit-notification subsystem wakes transactions parked
//     with Tx.Block on the next relevant commit instead of polling
//     (internal/stm), plus conformance checking of recorded runs
//     against the model (internal/conform).
//
// This file re-exports the most useful entry points so that module-local
// tools and benchmarks can use one import. See README.md for a tour and
// EXPERIMENTS.md for the paper-versus-measured index.
package modtx

import (
	"context"

	"modtx/internal/cluster"
	"modtx/internal/core"
	"modtx/internal/event"
	"modtx/internal/exec"
	"modtx/internal/kv"
	"modtx/internal/ltrf"
	"modtx/internal/prog"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// Model layer.
type (
	// Execution is an event graph with reads-from and coherence orders.
	Execution = event.Execution
	// Builder constructs executions event by event.
	Builder = event.Builder
	// Config selects a model from the paper's design space.
	Config = core.Config
	// Verdict is a consistency-check result.
	Verdict = core.Verdict
	// Program is a litmus program.
	Program = prog.Program
	// Outcome is the observable result of a complete execution.
	Outcome = exec.Outcome
	// TraceSet is an explicitly enumerated program semantics Σ.
	TraceSet = ltrf.TraceSet
)

// Model configurations.
var (
	// Programmer is the §2 model (HBww + Atomww): privatization race-free.
	Programmer = core.Programmer
	// Implementation is the §5 model: fences required for privatization.
	Implementation = core.Implementation
	// TSO includes crw in happens-before, as x86-TSO does (§6).
	TSO = core.TSO
	// Strongest enables all six HB variants and all Atom axioms.
	Strongest = core.Strongest
)

// NewBuilder starts an execution over the named locations (the init
// transaction writing 0 everywhere is added automatically, per WF1).
func NewBuilder(locs ...string) *Builder { return event.NewBuilder(locs...) }

// Check evaluates the consistency axioms of the configuration.
func Check(x *Execution, cfg Config) Verdict { return core.Check(x, cfg) }

// WellFormed returns the violated well-formedness conditions (WF1–WF12) of
// the trace view; empty means well-formed.
func WellFormed(x *Execution) []event.Violation { return event.WellFormed(x) }

// ParseProgram reads a litmus program in the textual format (see
// internal/prog.Parse for the grammar).
func ParseProgram(src string) (*Program, error) { return prog.Parse(src) }

// Outcomes enumerates the reachable outcomes of a program under cfg.
func Outcomes(p *Program, cfg Config) (map[string]*Outcome, error) {
	return exec.Outcomes(p, cfg)
}

// Allowed reports whether some complete consistent execution of p
// satisfies the predicate under cfg.
func Allowed(p *Program, cfg Config, pred func(*Outcome) bool) (bool, error) {
	return exec.Allowed(p, cfg, pred)
}

// GenerateTraces builds the explicit trace-set semantics Σ used by the
// SC-LTRF theorem checker.
func GenerateTraces(p *Program, cfg Config, maxTraces int) (*TraceSet, error) {
	return ltrf.GenerateTraces(p, cfg, maxTraces)
}

// Runtime layer (API v2: typed vars, functional options, context-aware
// execution).
type (
	// STM is a software transactional memory instance.
	STM = stm.STM
	// Var is an int64 transactional variable supporting mixed-mode
	// access — the zero-cost word specialization of TVar.
	Var = stm.Var
	// TVar is a typed transactional variable holding any T behind a
	// word-sized pointer box.
	TVar[T any] = stm.TVar[T]
	// Tx is a transaction handle. Tx.Block parks the transaction until
	// a variable it has read changes (event-driven, no polling).
	Tx = stm.Tx
	// ReadTx is the handle of read-only bodies (AtomicallyRead): it
	// reads through a validated snapshot (stm.Snap), so no engine takes
	// a lock for it.
	ReadTx = stm.ReadTx
	// TxError carries diagnostics (attempts, conflicts, engine) for
	// retry-budget exhaustion and cancellation; unwraps to its sentinel.
	TxError = stm.TxError
	// STMOption configures an STM instance (see WithEngine et al.).
	STMOption = stm.Option
)

// STM engines. The enum is backed by a registry: ParseEngine resolves
// names, Engines enumerates, and each engine's strategy lives behind an
// internal interface — new engines are new registry rows, not new hot
// paths.
const (
	// LazySTM buffers writes and applies them at commit.
	LazySTM = stm.Lazy
	// EagerSTM writes in place with an undo log.
	EagerSTM = stm.Eager
	// GlobalLockSTM serializes transactions under one mutex.
	GlobalLockSTM = stm.GlobalLock
)

// Engine is the STM engine selector (see LazySTM et al.).
type Engine = stm.Engine

// Engines returns every registered engine in registry order.
func Engines() []Engine { return stm.Engines() }

// ParseEngine resolves an engine name ("lazy", "eager", "global-lock" or
// a registered alias) to its Engine value.
func ParseEngine(name string) (Engine, error) { return stm.ParseEngine(name) }

// EngineNames returns the canonical engine names in registry order.
func EngineNames() []string { return stm.EngineNames() }

// STM instance options.
var (
	// WithEngine selects the versioning strategy (default LazySTM).
	WithEngine = stm.WithEngine
	// WithMaxRetries bounds commit attempts per Atomically call.
	WithMaxRetries = stm.WithMaxRetries
)

// Transactional error taxonomy: every runtime failure is errors.Is-able
// against one of these sentinels (see stm.TxError for diagnostics).
var (
	// ErrAborted aborts a transaction without retry when returned from
	// its body.
	ErrAborted = stm.ErrAborted
	// ErrMaxRetries reports retry-budget exhaustion.
	ErrMaxRetries = stm.ErrMaxRetries
	// ErrCanceled reports context cancellation between retry attempts.
	ErrCanceled = stm.ErrCanceled
)

// NewSTM creates a software transactional memory instance.
func NewSTM(opts ...STMOption) *STM { return stm.New(opts...) }

// NewTVar creates a typed transactional variable on s.
func NewTVar[T any](s *STM, name string, init T) *TVar[T] {
	return stm.NewTVar(s, name, init)
}

// ReadT returns the transactional value of a typed variable.
func ReadT[T any](tx *Tx, v *TVar[T]) T { return stm.ReadT(tx, v) }

// ReadTVar returns the value of a typed variable inside a read-only
// body.
func ReadTVar[T any](r *ReadTx, v *TVar[T]) T { return stm.ReadTVar(r, v) }

// WriteT sets the transactional value of a typed variable.
func WriteT[T any](tx *Tx, v *TVar[T], x T) { stm.WriteT(tx, v, x) }

// AtomicallyMulti runs fn as one transaction spanning several STM
// instances with a two-phase cross-instance commit (see stm.AtomicallyMulti).
func AtomicallyMulti(stms []*STM, fn func(txs []*Tx) error) error {
	return stm.AtomicallyMulti(stms, fn)
}

// AtomicallyMultiCtx is AtomicallyMulti honoring ctx between retry
// attempts.
func AtomicallyMultiCtx(ctx context.Context, stms []*STM, fn func(txs []*Tx) error) error {
	return stm.AtomicallyMultiCtx(ctx, stms, fn)
}

// AtomicallyReadMulti runs fn over one snapshot spanning several STM
// instances: consistent across them, and taking no locks at all (see
// stm.AtomicallyReadMulti).
func AtomicallyReadMulti(stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return stm.AtomicallyReadMulti(stms, fn)
}

// AtomicallyReadMultiCtx is AtomicallyReadMulti honoring ctx between
// retry attempts.
func AtomicallyReadMultiCtx(ctx context.Context, stms []*STM, fn func(rtxs []*ReadTx) error) error {
	return stm.AtomicallyReadMultiCtx(ctx, stms, fn)
}

// Serving layer.
type (
	// KV is a sharded transactional key-value store backed by the STM
	// runtime (see internal/kv and cmd/mtx-kv). Values are arbitrary
	// byte strings; counters ride the int64 specialization. Blocking
	// reads — WaitGet (wait for a key to exist) and Watch (wait for a
	// key to change) — park on the commit-notification subsystem and
	// back the server's BGET/WATCH commands.
	KV = kv.Store
	// KVOption configures a KV store (see KVWithShards et al.).
	KVOption = kv.Option
	// KVTxn is the handle passed to KV.Update transaction bodies.
	KVTxn = kv.Txn
	// KVViewTxn is the handle passed to KV.View read-only snapshot
	// bodies: multi-key reads consistent across shards, no write locks.
	KVViewTxn = kv.ViewTxn
	// KVStats is an aggregate statistics snapshot across shards.
	KVStats = kv.Stats
	// KVEvent is one committed write delivered on a changefeed: shard,
	// the commit's LSN (store-wide log sequence number), operation kind,
	// key and payload.
	KVEvent = kv.Event
	// KVSubscription is a prefix changefeed handle (see KV.Subscribe):
	// Events() streams commits in LSN order; slow consumers drop rather
	// than block committers (Dropped() counts the gap).
	KVSubscription = kv.Subscription
	// KVWALStats is the durability-plane statistics snapshot: append and
	// fsync counts/latencies, recovery summary, changefeed accounting.
	KVWALStats = kv.WALStats
	// WALLevel selects when a durable store's log reaches disk (see
	// WALFsync et al.).
	WALLevel = wal.Level
)

// Write-ahead-log durability levels for KVWithDurability.
const (
	// WALNone appends to the log but leaves flushing to the OS page
	// cache: fast, survives process crashes, not power loss.
	WALNone = wal.None
	// WALBatch fsyncs on a timer off the commit path, bounding loss to
	// the flush interval.
	WALBatch = wal.Batch
	// WALFsync group-commits: every commit waits until its record is on
	// disk, amortizing one fsync over concurrent committers.
	WALFsync = wal.Fsync
)

// KV store options.
var (
	// KVWithShards sets the shard count (rounded up to a power of two).
	KVWithShards = kv.WithShards
	// KVWithEngine selects the STM engine backing every shard.
	KVWithEngine = kv.WithEngine
	// KVWithDurability attaches the store's write-ahead log under dir
	// (one log per store); use OpenKV (not NewKV) so recovery errors are
	// reported. After a latched WAL failure the store goes read-only.
	KVWithDurability = kv.WithDurability
	// KVWithWALFS substitutes the filesystem under the write-ahead log —
	// the seam the fault-injection harness (internal/fault) plugs into.
	KVWithWALFS = kv.WithWALFS
)

// ErrKVWrongType reports a kv operation against a key holding the other
// kind of value (bytes vs. counter).
var ErrKVWrongType = kv.ErrWrongType

// ErrKVDegraded reports a write rejected because the store latched a
// WAL failure and went read-only; the cause is attached.
var ErrKVDegraded = kv.ErrDegraded

// NewKV creates a sharded transactional key-value store.
func NewKV(opts ...KVOption) *KV { return kv.New(opts...) }

// OpenKV creates a sharded transactional key-value store, recovering
// from the data directory first when KVWithDurability is set. Close a
// durable store to flush and fsync its log.
func OpenKV(opts ...KVOption) (*KV, error) { return kv.Open(opts...) }

// Replication layer (see internal/cluster and the README's Replication
// section). A primary ships its WAL — one record per transaction, in
// LSN order; a follower applies it through idempotent replay and serves
// reads under the specified replica semantics: the primary's history
// surfaces as a prefix, and cross-shard transactions surface
// atomically, never partially.
type (
	// KVReplica is the follower side: it wraps an in-memory KV and
	// applies the primary's record stream (see NewKVReplica).
	KVReplica = kv.Replica
	// KVReplicaStats is the replica's progress snapshot (watermark,
	// applied counts, readiness).
	KVReplicaStats = kv.ReplicaStats
	// ReplStreamer is the primary side: it serves each connected
	// replica the WAL, catch-up then live tail.
	ReplStreamer = cluster.Streamer
	// ReplClient feeds a primary's stream into a KVReplica,
	// reconnecting with backoff.
	ReplClient = cluster.Client
)

// Replication errors.
var (
	// ErrKVNotDurable reports a replication primary opened without
	// KVWithDurability — there is no log to ship.
	ErrKVNotDurable = kv.ErrNotDurable
	// ErrKVReplicaGap reports a record that does not extend the
	// replica's prefix; the feeder must re-catch-up.
	ErrKVReplicaGap = kv.ErrReplicaGap
)

// NewKVReplica creates a replica over a fresh in-memory store, at any
// shard count; durability options are rejected (a replica's durability
// is the primary's log).
func NewKVReplica(opts ...KVOption) (*KVReplica, error) { return kv.NewReplica(opts...) }

// NewReplStreamer wraps a durable KV for replication serving; call
// Serve with a listener to accept replicas.
func NewReplStreamer(s *KV) (*ReplStreamer, error) { return cluster.NewStreamer(s) }
