package stm

import "sync/atomic"

// TVar is a transactional variable holding any T. The value lives behind
// a word-sized atomic.Pointer[T] box, so plain (mixed-mode) access is a
// single pointer load/store and the engines move boxes, not values: the
// generic API costs one indirection over the int64 specialization (Var)
// and nothing else.
//
// Values handed out by Load / ReadT are the stored boxes themselves:
// treat them as immutable (copy before mutating reference types such as
// slices and maps), and Store / WriteT install a fresh box per write.
type TVar[T any] struct {
	varBase
	val atomic.Pointer[T]
}

// NewTVar creates a typed transactional variable with an initial value.
// (A free function because Go methods cannot introduce type parameters.)
// name says at the call site what the variable is for; it is not kept.
func NewTVar[T any](s *STM, name string, init T) *TVar[T] {
	v := new(TVar[T])
	v.Init(s, &init)
	return v
}

// Init makes the zero TVar at v a variable of s holding box, in place —
// for a TVar embedded by value in a struct of the caller's, which then
// hands out &thatStruct.field wherever a *TVar is wanted. box is installed
// as it is (see LoadBox), never nil. Init must run once, before anything
// else can reach v.
func (v *TVar[T]) Init(s *STM, box *T) {
	v.varBase.init(s)
	v.val.Store(box)
}

// Load performs a plain (non-transactional) read.
func (v *TVar[T]) Load() T { return *v.val.Load() }

// Store performs a plain (non-transactional) write. Like Var.Store it
// does not interact with the transactional version clock; use Quiesce for
// privatization.
func (v *TVar[T]) Store(x T) { v.val.Store(&x) }

// LoadBox is Load on the box itself, the *T the variable holds. It —
// and its transactional twins ReadBox, ReadTVarBox and WriteBox — keeps
// a box's identity, which the copies in Load/Store/ReadT/WriteT do not:
// a caller can reserve a box of its own as a distinguished non-value
// and recognise it by pointer, without dereferencing (internal/kv's
// absent and retired keys). A box is immutable once stored.
func (v *TVar[T]) LoadBox() *T { return v.val.Load() }

func (v *TVar[T]) load() (int64, any)   { return 0, v.val.Load() }
func (v *TVar[T]) store(_ int64, p any) { v.val.Store(p.(*T)) }

// ReadT returns the transactional value of v, exactly as Tx.Read does for
// int64 vars: consistent against the begin-time snapshot, with
// read-your-own-writes within the transaction.
func ReadT[T any](tx *Tx, v *TVar[T]) T {
	return *ReadBox(tx, v)
}

// WriteT sets the transactional value of v.
func WriteT[T any](tx *Tx, v *TVar[T], x T) {
	tx.e.write(tx, v, 0, &x)
}

// ReadBox is ReadT returning the box; see LoadBox.
func ReadBox[T any](tx *Tx, v *TVar[T]) *T {
	_, p := tx.e.read(tx, v)
	return p.(*T)
}

// WriteBox is WriteT installing b itself; see LoadBox.
func WriteBox[T any](tx *Tx, v *TVar[T], b *T) {
	tx.e.write(tx, v, 0, b)
}
