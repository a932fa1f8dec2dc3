// Package fairness implements the paper's accounting model (Figs. 1–3):
// per-process contribution (messages/bytes published and forwarded, split
// into application and infrastructure classes) and benefit (events
// delivered, active filters), plus the derived fairness reports.
//
// The central definition (Fig. 1): a system is fair when every process's
// contribution/benefit ratio equals the same constant f. The ledger
// measures both sides; reports quantify the spread of the ratios.
package fairness

import (
	"math"
	"sync"
	"sync/atomic"
)

// Class distinguishes what a forwarded message was for. The paper counts
// both: "These might include application messages as well as
// infrastructure messages" (§2).
type Class uint8

const (
	// ClassApp is event dissemination traffic.
	ClassApp Class = iota + 1
	// ClassInfra is membership/subscription maintenance traffic.
	ClassInfra
)

const numClasses = 2

// Account holds the running totals for one process.
type Account struct {
	MsgsSent  [numClasses + 1]uint64 // indexed by Class; slot 0 unused
	BytesSent [numClasses + 1]uint64

	Published      uint64 // events originated by this process
	PublishedBytes uint64
	Delivered      uint64 // events delivered (matched interest)
	Filters        int    // currently active subscriptions

	UsefulBytes uint64 // audited: bytes that were novel to the receiver
	JunkBytes   uint64 // audited: duplicate/no-value bytes

	ChurnPenalty float64 // repair work this process imposed on others
}

// The weights of the contribution and benefit terms, Fig. 2's.
const (
	// kappa weighs active filters inside the benefit term: Fig. 2 counts
	// "# filters" toward what a process gets out of the system.
	kappa = 1
	// infraWeight scales infrastructure bytes relative to application
	// bytes in the contribution term: they count equally.
	infraWeight = 1
)

// Weights selects how contribution is counted. The zero value is the
// default: Fig. 2's accounting of every byte sent.
type Weights struct {
	// Audited switches contribution to count only bytes acknowledged as
	// novel by receivers (the §5.2 anti-bias mechanism, EXP-A6).
	Audited bool
}

// DefaultWeights is Fig. 2's accounting, the zero Weights.
func DefaultWeights() Weights { return Weights{} }

// account is the padded, atomically-updated storage slot for one process.
// Counters are per-account rather than guarded by a ledger-wide mutex, so
// the simulator's single-threaded fast path pays only uncontended atomic
// adds and the live runtime's goroutines never serialise on a global lock.
// The padding rounds the slot up to two cache lines so neighbouring
// accounts written by different goroutines do not false-share.
type account struct {
	msgsSent       [numClasses + 1]atomic.Uint64
	bytesSent      [numClasses + 1]atomic.Uint64
	published      atomic.Uint64
	publishedBytes atomic.Uint64
	delivered      atomic.Uint64
	filters        atomic.Int64
	usefulBytes    atomic.Uint64
	junkBytes      atomic.Uint64
	churnPenalty   atomic.Uint64 // float64 bits, CAS-accumulated
	_              [24]byte      // pad 104 → 128 bytes
}

// addFloat accumulates v into a float64 stored as atomic bits.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot copies the slot into a plain Account.
func (a *account) snapshot() Account {
	var out Account
	for c := 1; c <= numClasses; c++ {
		out.MsgsSent[c] = a.msgsSent[c].Load()
		out.BytesSent[c] = a.bytesSent[c].Load()
	}
	out.Published = a.published.Load()
	out.PublishedBytes = a.publishedBytes.Load()
	out.Delivered = a.delivered.Load()
	out.Filters = int(a.filters.Load())
	out.UsefulBytes = a.usefulBytes.Load()
	out.JunkBytes = a.junkBytes.Load()
	out.ChurnPenalty = math.Float64frombits(a.churnPenalty.Load())
	return out
}

// Accounts are stored in fixed-size chunks so Grow never moves a live
// slot: concurrent writers keep their pointers while the chunk index is
// swapped copy-on-write.
const (
	chunkShift = 8 // 256 accounts per chunk (32 KiB)
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// ChunkSize is the number of accounts per storage chunk. The sharded
// simulation aligns shard boundaries to it so two shards' hot atomic
// writes never land in the same chunk (and Grow, which appends whole
// chunks, only ever touches the tail shard's territory).
const ChunkSize = chunkSize

type chunk [chunkSize]account

// Ledger tracks accounts for a fixed (growable) population. It is safe
// for concurrent use: the hot add path is lock-free per-account atomics;
// only Grow takes a lock, to serialise chunk-index swaps.
type Ledger struct {
	w      Weights
	size   atomic.Int64             // published population size
	chunks atomic.Pointer[[]*chunk] // chunk index, swapped copy-on-write
	growMu sync.Mutex               // serialises Grow
}

// NewLedger returns a ledger for n processes.
func NewLedger(n int, w Weights) *Ledger {
	l := &Ledger{w: w}
	cs := make([]*chunk, (n+chunkMask)>>chunkShift)
	for i := range cs {
		cs[i] = new(chunk)
	}
	l.chunks.Store(&cs)
	l.size.Store(int64(n))
	return l
}

// Len returns the population size.
func (l *Ledger) Len() int { return int(l.size.Load()) }

// Grow extends the ledger to cover at least n processes. Existing
// accounts never move, so it is safe to grow while writers are active.
//
// Memory-ordering audit (sharded writers racing Grow): Go's atomic
// operations are sequentially consistent, so the ordering argument is
// purely about program order. Grow publishes the new chunk index
// (chunks.Store) strictly before the new size (size.Store); account()
// admits an id only after loading size, then loads the chunk index. Any
// interleaving therefore gives a reader that admitted id < size a chunk
// index published at-or-after the store that made that size visible —
// i.e. one that contains id's chunk. Old indexes remain valid forever
// (chunk pointers are copied, never moved), so a writer that cached a
// *account across a Grow keeps writing the same slot the new index
// points to. The one non-guarantee: ids beyond the size a reader
// observed read as absent (account() returns nil and the add is
// dropped) — callers must not charge an id before the Grow that admits
// it returns, which the cluster upholds by growing before constructing
// the node. TestGrowRacingShardWriters exercises this under -race.
func (l *Ledger) Grow(n int) {
	l.growMu.Lock()
	defer l.growMu.Unlock()
	if int64(n) <= l.size.Load() {
		return
	}
	old := *l.chunks.Load()
	if need := (n + chunkMask) >> chunkShift; need > len(old) {
		cs := make([]*chunk, need)
		copy(cs, old)
		for i := len(old); i < need; i++ {
			cs[i] = new(chunk)
		}
		l.chunks.Store(&cs)
	}
	l.size.Store(int64(n))
}

// account resolves id to its storage slot, or nil when out of range.
// The size load precedes the chunk load: Grow publishes chunks before
// size, so any id we admit has a live slot in whatever index we see.
func (l *Ledger) account(id int) *account {
	if id < 0 || int64(id) >= l.size.Load() {
		return nil
	}
	cs := *l.chunks.Load()
	return &cs[id>>chunkShift][id&chunkMask]
}

// AddSend records a sent protocol message of the given class and size.
func (l *Ledger) AddSend(id int, c Class, bytes int) {
	a := l.account(id)
	if a == nil || c < ClassApp || c > ClassInfra {
		return
	}
	a.msgsSent[c].Add(1)
	a.bytesSent[c].Add(uint64(bytes))
}

// AddPublish records an event origination.
func (l *Ledger) AddPublish(id int, bytes int) {
	if a := l.account(id); a != nil {
		a.published.Add(1)
		a.publishedBytes.Add(uint64(bytes))
	}
}

// AddDelivery records one delivered (interesting) event.
func (l *Ledger) AddDelivery(id int) {
	if a := l.account(id); a != nil {
		a.delivered.Add(1)
	}
}

// SetFilters records the current number of active subscriptions.
func (l *Ledger) SetFilters(id, n int) {
	if a := l.account(id); a != nil {
		a.filters.Store(int64(n))
	}
}

// AddAudit records a receiver's novelty verdict about bytes previously
// sent by id: useful bytes carried events the receiver did not have.
func (l *Ledger) AddAudit(id int, usefulBytes, junkBytes int) {
	if a := l.account(id); a != nil {
		a.usefulBytes.Add(uint64(usefulBytes))
		a.junkBytes.Add(uint64(junkBytes))
	}
}

// AddChurnPenalty charges repair work caused by id's instability (§3.2:
// "it might also be wise to penalize unstable nodes").
func (l *Ledger) AddChurnPenalty(id int, amount float64) {
	if amount < 0 {
		return
	}
	if a := l.account(id); a != nil {
		addFloat(&a.churnPenalty, amount)
	}
}

// Account returns a copy of one process's account.
func (l *Ledger) Account(id int) Account {
	a := l.account(id)
	if a == nil {
		return Account{}
	}
	return a.snapshot()
}

// Weights returns the ledger's weight configuration.
func (l *Ledger) Weights() Weights { return l.w }

// Contribution computes the contribution term for one account under
// weights w: application bytes + weighted infrastructure bytes +
// published bytes, or audited useful bytes when w.Audited is set, plus
// any churn penalty.
func Contribution(a Account, w Weights) float64 {
	var c float64
	if w.Audited {
		c = float64(a.UsefulBytes) + float64(a.PublishedBytes)
	} else {
		c = float64(a.BytesSent[ClassApp]) +
			infraWeight*float64(a.BytesSent[ClassInfra]) +
			float64(a.PublishedBytes)
	}
	return c + a.ChurnPenalty
}

// Benefit computes the benefit term: delivered events + κ·filters.
func Benefit(a Account) float64 {
	return float64(a.Delivered) + kappa*float64(a.Filters)
}

// Ratio computes contribution/benefit with the convention that a process
// with zero benefit and zero contribution has ratio 0, and a process with
// zero benefit but positive contribution has its contribution as ratio
// (benefit floored at 1): pure unrequited work is maximally visible.
func Ratio(a Account, w Weights) float64 {
	c := Contribution(a, w)
	b := Benefit(a)
	if b < 1 {
		b = 1
	}
	return c / b
}

// Contribution returns the ledger's contribution for process id.
func (l *Ledger) Contribution(id int) float64 { return Contribution(l.Account(id), l.w) }

// Benefit returns the ledger's benefit for process id.
func (l *Ledger) Benefit(id int) float64 { return Benefit(l.Account(id)) }

// Ratio returns the ledger's contribution/benefit ratio for process id.
func (l *Ledger) Ratio(id int) float64 { return Ratio(l.Account(id), l.w) }

// Snapshot returns copies of all accounts (for windowed controllers and
// reports). Each account is internally consistent; under concurrent
// writers the snapshot as a whole is a per-counter point-in-time view,
// which is what windowed rate controllers difference anyway.
func (l *Ledger) Snapshot() []Account {
	n := l.Len()
	cs := *l.chunks.Load()
	out := make([]Account, n)
	for i := 0; i < n; i++ {
		out[i] = cs[i>>chunkShift][i&chunkMask].snapshot()
	}
	return out
}

// Delta returns a-b field-wise; controllers diff snapshots to obtain
// per-window rates.
func Delta(a, b Account) Account {
	var d Account
	for c := 1; c <= numClasses; c++ {
		d.MsgsSent[c] = a.MsgsSent[c] - b.MsgsSent[c]
		d.BytesSent[c] = a.BytesSent[c] - b.BytesSent[c]
	}
	d.Published = a.Published - b.Published
	d.PublishedBytes = a.PublishedBytes - b.PublishedBytes
	d.Delivered = a.Delivered - b.Delivered
	d.Filters = a.Filters // filters are a level, not a counter
	d.UsefulBytes = a.UsefulBytes - b.UsefulBytes
	d.JunkBytes = a.JunkBytes - b.JunkBytes
	d.ChurnPenalty = a.ChurnPenalty - b.ChurnPenalty
	return d
}
