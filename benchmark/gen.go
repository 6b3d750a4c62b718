package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"modtx/internal/kv"
)

// Input generation. Everything a workload feeds the system — key names,
// op codes, key choices, transfer amounts — is drawn here from the seed
// before any timer starts; the system only ever sees the generated
// inputs. The same seed gives the same inputs.

const (
	valueLen = 128

	// Value layout, binary form (in-process workloads): key checksum,
	// then a per-key version, then a free word (the replica workload
	// stores the write's due time there), then filler.
	offSum  = 0
	offVer  = 8
	offWord = 16

	// Text form (wire workloads, whose values may not contain newlines
	// or lead with a space): checksum and version as 16 hex digits each,
	// then filler.
	hexWord = 16
)

// Op codes. In-process and wire workloads share the ring format; each
// workload's mix uses only the codes it lists.
const (
	opFastGet = iota
	opGet
	opMGet
	opSet
	opCounterAdd
	opTransfer
	opAudit
	numOpCodes
)

var opClass = [numOpCodes]int{
	opFastGet: classRead, opGet: classRead, opMGet: classRead, opAudit: classRead,
	opSet: classWrite, opCounterAdd: classWrite, opTransfer: classWrite,
}

// op is one pre-generated operation: a is the key index (byte key, hit
// counter, transfer source, or the op's slot in ring.multi), b the
// transfer destination.
type op struct {
	a, b uint32
	code uint8
}

// ring is one client's op stream, cycled for as long as the window
// lasts. Its length is a power of two.
type ring struct {
	ops   []op
	multi []uint32 // key indexes of multi-key reads, mgetN per opMGet
}

type mixEntry struct {
	code uint8
	pct  int
}

// keyspace is the generated key universe of one workload.
type keyspace struct {
	keys  []string // byte keys user:%08d
	sums  []uint64 // checksum of each byte key, as stored in its values
	accts []string // counters moved by transfers; they sum to zero
	hits  []string // counters bumped by CounterAdd / ADD
	// acctShard[i] is the shard accts[i] lives on: transfers are drawn
	// between different shards so each one is a cross-shard commit.
	acctShard []int
}

func newKeyspace(nkeys, naccts, nhits int) *keyspace {
	// Shard placement is a pure function of the key and the default
	// shard count; an empty store answers it.
	probe := kv.New()
	ks := &keyspace{
		keys: make([]string, nkeys), sums: make([]uint64, nkeys),
		accts: make([]string, naccts), acctShard: make([]int, naccts),
		hits: make([]string, nhits),
	}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("user:%08d", i)
		ks.sums[i] = checksum(ks.keys[i])
	}
	for i := range ks.accts {
		ks.accts[i] = fmt.Sprintf("acct:%06d", i)
		ks.acctShard[i] = probe.ShardOf(ks.accts[i])
	}
	for i := range ks.hits {
		ks.hits[i] = fmt.Sprintf("hits:%06d", i)
	}
	return ks
}

// checksum is FNV-1a over the key, never zero (zero marks "no value").
func checksum(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// newValue returns a binary value buffer with its filler in place;
// stamp fills the words. The store copies values on the way in, so one
// buffer per client is reused for every write.
func newValue() []byte {
	v := make([]byte, valueLen)
	for i := offWord + 8; i < valueLen; i++ {
		v[i] = byte('a' + i%26)
	}
	return v
}

func stamp(v []byte, sum, ver, word uint64) {
	binary.LittleEndian.PutUint64(v[offSum:], sum)
	binary.LittleEndian.PutUint64(v[offVer:], ver)
	binary.LittleEndian.PutUint64(v[offWord:], word)
}

func valueSum(v []byte) uint64 {
	if len(v) != valueLen {
		return 0
	}
	return binary.LittleEndian.Uint64(v[offSum:])
}
func valueVer(v []byte) uint64  { return binary.LittleEndian.Uint64(v[offVer:]) }
func valueWord(v []byte) uint64 { return binary.LittleEndian.Uint64(v[offWord:]) }

const hexDigits = "0123456789abcdef"

// appendTextValue appends the text form of a value: two hex words and
// filler, valueLen bytes in all.
func appendTextValue(dst []byte, sum, ver uint64) []byte {
	for _, w := range [2]uint64{sum, ver} {
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[(w>>uint(shift))&15])
		}
	}
	for i := 2 * hexWord; i < valueLen; i++ {
		dst = append(dst, byte('a'+i%26))
	}
	return dst
}

// textValueSum parses the checksum word of a text value; 0 when v is
// not a well-formed value.
func textValueSum(v []byte) uint64 {
	if len(v) != valueLen {
		return 0
	}
	var w uint64
	for _, c := range v[:hexWord] {
		switch {
		case c >= '0' && c <= '9':
			w = w<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			w = w<<4 | uint64(c-'a'+10)
		default:
			return 0
		}
	}
	return w
}

// picker draws key indexes: Zipf-skewed over [0,n) when s > 1, uniform
// otherwise.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newPicker(rng *rand.Rand, s float64, n int) *picker {
	p := &picker{rng: rng, n: n}
	if s > 1 && n > 1 {
		p.zipf = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	return p
}

func (p *picker) next() uint32 {
	if p.zipf != nil {
		return uint32(p.zipf.Uint64())
	}
	return uint32(p.rng.IntN(p.n))
}

// ringSpec says how to draw one client's ring.
type ringSpec struct {
	mix    []mixEntry
	zipfS  float64 // key skew; <= 1 draws uniformly
	nkeys  int     // byte-key index range (a client's own slice of the keys when they are partitioned)
	mgetN  int     // keys per opMGet
	length int     // ops in the ring, a power of two
}

// newRing draws one client's op stream. client separates the streams of
// one run; the PCG state is (seed, client).
func newRing(seed uint64, client int, ks *keyspace, spec ringSpec) *ring {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	keyPick := newPicker(rng, spec.zipfS, spec.nkeys)
	acctPick := newPicker(rng, spec.zipfS, len(ks.accts))
	hitPick := newPicker(rng, spec.zipfS, len(ks.hits))
	var table []uint8
	for _, m := range spec.mix {
		for j := 0; j < m.pct; j++ {
			table = append(table, m.code)
		}
	}
	if len(table) != 100 {
		panic(fmt.Sprintf("op mix sums to %d%%, want 100", len(table)))
	}
	r := &ring{ops: make([]op, spec.length)}
	for i := range r.ops {
		o := op{code: table[rng.IntN(100)]}
		switch o.code {
		case opFastGet, opGet, opSet:
			o.a = keyPick.next()
		case opMGet:
			o.a = uint32(len(r.multi) / spec.mgetN)
			for j := 0; j < spec.mgetN; j++ {
				r.multi = append(r.multi, keyPick.next())
			}
		case opCounterAdd:
			o.a = hitPick.next()
		case opTransfer:
			o.a = acctPick.next()
			for o.b = acctPick.next(); ks.acctShard[o.b] == ks.acctShard[o.a]; {
				o.b = acctPick.next()
			}
		}
		r.ops[i] = o
	}
	return r
}

// amount is the delta an op moves or adds: small, positive, and a pure
// function of the op so a replayed ring repeats it.
func (o op) amount() int64 { return 1 + int64(o.a%5) }
