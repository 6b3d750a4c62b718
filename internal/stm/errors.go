package stm

import (
	"errors"
	"fmt"
)

// Sentinel errors of the transactional API. All errors returned by
// Atomically / AtomicallyCtx and their multi-instance variants either are
// one of these sentinels, wrap one in a *TxError carrying diagnostics, or
// come verbatim from the transaction body — so callers dispatch with
// errors.Is and recover diagnostics with errors.As.
var (
	// ErrAborted is returned by transaction bodies to abort without
	// retrying. Atomically rolls the transaction back and returns it.
	ErrAborted = errors.New("stm: transaction aborted by user")

	// ErrMaxRetries reports that a transaction exceeded its retry budget.
	// The returned error is a *TxError wrapping this sentinel.
	ErrMaxRetries = errors.New("stm: transaction exceeded retry budget")

	// ErrCanceled reports that the context passed to AtomicallyCtx (or
	// AtomicallyMultiCtx) was canceled or timed out between retry
	// attempts. The returned error is a *TxError wrapping this sentinel
	// and the context's error, so errors.Is matches both ErrCanceled and
	// context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("stm: transaction canceled")

	// ErrDuplicateInstance reports that AtomicallyMulti or
	// AtomicallyReadMulti was given the same STM instance more than once
	// (which would self-deadlock on the global-lock engine).
	ErrDuplicateInstance = errors.New("stm: duplicate STM instance in AtomicallyMulti")
)

// TxError is the diagnostic wrapper for transaction failures that are the
// runtime's fault rather than the body's: retry-budget exhaustion and
// context cancellation. It unwraps to its sentinel (and, for
// cancellation, to the context's error).
type TxError struct {
	Op        string // the entry point called: "atomically", "atomically-read", "atomically-multi" or "atomically-read-multi"
	Engine    Engine // engine of the (first) instance
	Attempts  int    // attempts completed when the call gave up
	Conflicts int    // conflict-aborted attempts within this call
	Err       error  // sentinel: ErrMaxRetries or ErrCanceled
	Cause     error  // context error for ErrCanceled, else nil
}

func (e *TxError) Error() string {
	msg := fmt.Sprintf("%v (%s on %s engine: %d attempts, %d conflicts",
		e.Err, e.Op, e.Engine, e.Attempts, e.Conflicts)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg + ")"
}

// Unwrap exposes the sentinel and the cancellation cause to errors.Is/As.
func (e *TxError) Unwrap() []error {
	if e.Cause != nil {
		return []error{e.Err, e.Cause}
	}
	return []error{e.Err}
}

func (s *STM) txError(op string, attempts, conflicts int, sentinel, cause error) *TxError {
	return &TxError{
		Op:        op,
		Engine:    s.engine,
		Attempts:  attempts,
		Conflicts: conflicts,
		Err:       sentinel,
		Cause:     cause,
	}
}
