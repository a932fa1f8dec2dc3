// Package wire is the one message format of both drivers: the kinds a
// peer sends (Kind), a message as its sender holds it (Msg), its size
// (Msg.Size), its encoding (Append) and the validating scan that reads it
// back (DecodeEnvelope). The live runtime puts these bytes on a transport;
// the simulator passes Msgs by reference and charges their Size. Tests
// hold Size equal to the encoder's output, so on both drivers the bytes
// the fairness ledger charges are the bytes on the wire.
//
// The format is compact, big-endian and length-prefixed at every variable
// field: a 10-byte header, then the kind's body — a walk's origin and
// hops or an eager push's hop, the count records the kind carries (event records, which pubsub
// encodes and walks: Event.AppendBinary and ReadRecord; 6-byte view
// entries or 8-byte event ids), a lazy push's count(2) and ids, and the
// optional parts the header announces, each costing bytes only when
// present. This package only frames: nothing in it reads or writes an
// event record's fields. Nothing says how long the body is: the decoder
// walks it with a bounds-checked cursor and must land exactly on the last
// byte. It never panics or over-reads, validates every kind, part and
// value byte, and accepts exactly one encoding per message
// (FuzzWireDecode).
//
// Append appends into a caller's buffer, so a sender encodes a fanout's
// envelope once into reused scratch. Decoding is two steps, because push
// gossip delivers most events many times over: DecodeEnvelope scans the
// whole envelope without allocating, leaving each event as an EventRecord
// (its ID and its bytes, still in the input buffer), and a receiver calls
// EventRecord.Decode only for the IDs it has not seen, through a Decoder
// whose slabs make that a fraction of an allocation. Scan and materialise
// are one walker (pubsub.ReadRecord, the one pubsub.Event.UnmarshalBinary
// runs too), so they cannot disagree on what is valid.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"fairgossip/internal/pubsub"
)

const (
	// Magic identifies a fairgossip envelope (first two header bytes).
	Magic uint16 = 0xFA15
	// Version is the only envelope version this codec speaks. Version 1's
	// 16-byte header also carried reserved(2) and body(4) fields.
	Version byte = 2
	// HeaderSize is the envelope header: magic(2) version(1) kind(1)
	// sender(4) count(2). The kind byte holds the Kind in its low four bits
	// and one bit per optional part present in its high four.
	HeaderSize = 10
	// EntryWireSize is the encoded size of one view entry: id(4) + age(2).
	EntryWireSize = 6
	// IDWireSize is the encoded size of one event id: publisher(4) + seq(4).
	IDWireSize = 8
	walkSize   = 6  // a walk's origin(4) + hops(2)
	hopSize    = 1  // an eager push's hop(1)
	fpAdSize   = 12 // a fingerprint ad: id(4) + fingerprint(8)
)

// Kind names a message: the one kind family both drivers speak. The live
// runtime runs events, eager and lazy pushes and the pulls that repair
// them, and the four membership kinds; the rest only the simulator runs,
// and a live peer counts them as malformed.
type Kind uint8

const (
	KindEvents  Kind = iota // a batch of event records: a round's gossip, or a pull's answer
	KindOffer               // the initiator's half of a Cyclon shuffle
	KindReply               // entries answering an offer, or a join
	KindJoin                // a booting peer's announcement to its seed (its view, usually empty)
	KindLeave               // a graceful departure, handing over the freshest entries
	KindSubWalk             // a topic-mode subscription walk: topic, origin, hops, no records
	KindSubAck              // group-bootstrap entries answering a subscription walk
	KindPubWalk             // a walk handing a publication's events to the topic's group
	KindDigest              // the ids of a push-pull archive
	KindPull                // the ids of a digest or lazy push its receiver has not seen
	KindLazy                // KindEvents' records, then the ids of big events: a lazy push
	KindEager               // a hop(1), then KindEvents' records: an event's first hops, sent on receipt
	NumKinds                // bounds the family: every kind is below it
)

// record is what a kind's count field counts.
type record uint8

const (
	recNone record = iota
	recEvent
	recEntry
	recID
)

// layout is the shape of kind k's body: the record its count counts, the
// bytes that precede them (pre: a walk's origin and hops, or an eager
// push's hop), and whether a lazy push's count(2) and ids (at least one)
// follow them. ok is false outside the family.
func (k Kind) layout() (rec record, pre int, lazy, ok bool) {
	switch k {
	case KindEvents:
		return recEvent, 0, false, true
	case KindOffer, KindReply, KindJoin, KindLeave, KindSubAck:
		return recEntry, 0, false, true
	case KindSubWalk:
		return recNone, walkSize, false, true
	case KindPubWalk:
		return recEvent, walkSize, false, true
	case KindDigest, KindPull:
		return recID, 0, false, true
	case KindLazy:
		return recEvent, 0, true, true
	case KindEager:
		return recEvent, hopSize, false, true
	}
	return recNone, 0, false, false
}

// The optional parts, in encoding order, one bit each in the kind byte.
const (
	partTopic byte = 1 << (4 + iota) // len(2) + topic bytes
	partAds                          // count(2) + view entries
	partFP                           // fingerprint(8) + count(2) + fingerprint ads
	partPad                          // len(4) + that many zero bytes
	kindMask  = 0x0f
)

// ViewEntry is one membership view slot on the wire: a peer id and the
// age (in shuffle periods, saturated at 65535) of the information about
// it. It mirrors membership.Entry without importing protocol logic into
// the codec.
type ViewEntry struct {
	ID  uint32
	Age uint16
}

// FPAd is a third-party interest-fingerprint advertisement.
type FPAd struct {
	ID uint32
	FP uint64
}

// Msg is one message as its sender holds it. Only the records its kind
// counts are encoded: Events, Entries or Parts.IDs, and a lazy push's
// Events and Parts.IDs (Kind.layout). Hop is encoded on KindEager only; it
// sits in the padding after Kind, so it costs a Msg no bytes.
type Msg struct {
	Kind    Kind
	Hop     uint8 // KindEager: the hop this push is (the publisher's is 1)
	Events  []*pubsub.Event
	Entries []ViewEntry
	Parts   *Parts // nil: none of its fields is set
}

// Parts are what only the simulator's topic groups, walks, semantic bias,
// push-pull and cheaters set. Origin, Hops and IDs are encoded on the
// kinds that carry them; any other part on any kind, and only when set.
type Parts struct {
	Origin uint32           // walk kinds: the walk's originator
	Hops   uint16           // walk kinds: hops left
	IDs    []pubsub.EventID // KindDigest, KindPull, KindLazy
	Topic  string           // topic-mode group tag
	Ads    []ViewEntry      // piggybacked group membership ads
	FP     uint64           // the sender's interest fingerprint
	FPAds  []FPAd           // piggybacked third-party fingerprints
	Pad    int              // cheat padding: counted bytes that carry nothing
}

// noParts is what a Msg without parts reads as. Never written.
var noParts Parts

// Opt returns m's parts for reading: all zero when it has none.
func (m *Msg) Opt() *Parts {
	if m.Parts == nil {
		return &noParts
	}
	return m.Parts
}

// Size returns the exact number of bytes Append encodes m to — the one
// size a sender is charged on either driver.
func (m *Msg) Size() int {
	rec, pre, lazy, _ := m.Kind.layout()
	p := m.Opt()
	n := HeaderSize + pre
	switch rec {
	case recEvent:
		for _, ev := range m.Events {
			n += ev.WireSize()
		}
	case recEntry:
		n += len(m.Entries) * EntryWireSize
	case recID:
		n += len(p.IDs) * IDWireSize
	}
	if lazy {
		n += 2 + len(p.IDs)*IDWireSize
	}
	if p.Topic != "" {
		n += 2 + len(p.Topic)
	}
	if len(p.Ads) > 0 {
		n += 2 + len(p.Ads)*EntryWireSize
	}
	if p.FP != 0 || len(p.FPAds) > 0 {
		n += 8 + 2 + len(p.FPAds)*fpAdSize
	}
	if p.Pad > 0 {
		n += 4 + p.Pad
	}
	return n
}

// Decode errors. Errors wrap one of these sentinels, or for a malformed
// event record pubsub.ErrShortBuffer or pubsub.ErrCorrupt; decode never
// panics and never reads outside the input buffer.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrCorrupt   = errors.New("wire: corrupt message")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrTooLarge  = errors.New("wire: message exceeds encodable limits")
)

// Envelope is one scanned message: its kind, an eager push's hop, its
// sender, records (Records, Entries or Parts.IDs, as the kind says) and
// parts. DecodeEnvelope reuses
// its backing arrays; only a topic part costs an allocation. Records alias
// the buffer DecodeEnvelope was given: they are valid only while that
// buffer is, must be treated as read-only, and must not outlive the call
// that received the buffer (a receiver may release it for reuse right
// after). Events produced by EventRecord.Decode never alias it.
type Envelope struct {
	Kind    Kind
	Hop     uint8
	Sender  uint32
	Records []EventRecord
	Entries []ViewEntry
	Parts   Parts
}

// EventRecord is one validated event record of a scanned envelope.
type EventRecord struct {
	// ID is the record's event id, read during the scan so a receiver
	// can deduplicate before paying for anything else.
	ID pubsub.EventID
	// Raw is the encoded record: a read-only sub-slice of the scanned
	// buffer, capacity-capped to its length, with
	// len(Raw) == Event.WireSize() of the event it encodes.
	Raw []byte
}

// Decoder is one receiver's memory for the events it materialises: the
// pubsub.Memory EventRecord.Decode hands the record walker.
//
// It interns topics: a receiver sees the same few topics over and over,
// so a novel event shares its topic string with earlier events on that
// topic. It keeps at most maxTopics topics of at most maxTopicLen bytes
// and decodes any other into a fresh string, so a sender spraying random
// topics pins no memory.
//
// It carves decoded events and their payloads out of two slabs, one of
// slabEvents events and one of bytes for slabEvents payloads of the
// current size, so a novel event costs a fraction of an allocation. Every
// carve is capacity-capped and no slab is handed out twice, so a decoded
// event still owns its memory: appending to its payload reallocates, and
// nothing another event, a later decode or a released receive buffer
// writes can reach it. A retained event keeps its slabs reachable: at
// most slabEvents events' structs and payload bytes.
//
// The zero value is ready to use; it is not safe for concurrent use.
type Decoder struct {
	topics map[string]string
	events []pubsub.Event // the current event slab's unused tail
	bytes  []byte         // the current payload slab's unused tail
}

const (
	maxTopics, maxTopicLen = 256, 256
	// slabEvents is how many events share a slab. A slab stays reachable
	// until the last of its events is dropped, so a larger one saves
	// allocations and holds more memory: on live-udp-wan, 16 and 32 saved
	// a further 0.44 and 0.70 allocations per delivery and added 4 % and
	// 11 % to peak RSS over 8 (PERFORMANCE.md, "Decoding into peer-owned
	// slabs").
	slabEvents = 8
	// maxSlabPayload bounds the payloads that share a slab: a larger one
	// keeps its own allocation, so one retained event pins at most
	// slabEvents × 8 KiB of payload bytes.
	maxSlabPayload = 8 << 10
)

// Topic returns b as a string: the interned one, or a fresh string.
func (d *Decoder) Topic(b []byte) string {
	if d == nil {
		return string(b)
	}
	if s, ok := d.topics[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.topics) < maxTopics && len(s) <= maxTopicLen {
		if d.topics == nil {
			d.topics = make(map[string]string)
		}
		d.topics[s] = s
	}
	return s
}

// event returns a zero event of its own: the next slot of the event slab
// (nil d: a fresh allocation).
func (d *Decoder) event() *pubsub.Event {
	if d == nil {
		return new(pubsub.Event)
	}
	if len(d.events) == 0 {
		d.events = make([]pubsub.Event, slabEvents)
	}
	e := &d.events[0]
	d.events = d.events[1:]
	return e
}

// Payload returns a copy of b with capacity len(b): carved from the
// payload slab, or a fresh allocation for a nil d or a payload above
// maxSlabPayload.
func (d *Decoder) Payload(b []byte) []byte {
	if d == nil || len(b) > maxSlabPayload {
		return append([]byte(nil), b...)
	}
	if len(d.bytes) < len(b) {
		d.bytes = make([]byte, slabEvents*len(b))
	}
	p := d.bytes[:len(b):len(b)]
	d.bytes = d.bytes[len(b):]
	copy(p, b)
	return p
}

// EnvelopeSize returns the exact number of bytes AppendEnvelope will
// produce for this batch.
func EnvelopeSize(events []*pubsub.Event) int {
	return (&Msg{Kind: KindEvents, Events: events}).Size()
}

// AppendEnvelope appends a KindEvents envelope carrying events to dst:
// Append for the one kind the live runtime gossips.
func AppendEnvelope(dst []byte, sender uint32, events []*pubsub.Event) ([]byte, error) {
	return Append(dst, sender, &Msg{Kind: KindEvents, Events: events})
}

// Append appends m, sent by sender, to dst: exactly m.Size() bytes. On
// error the returned slice may hold a partial encoding; discard it.
func Append(dst []byte, sender uint32, m *Msg) ([]byte, error) {
	rec, pre, lazy, ok := m.Kind.layout()
	if !ok {
		return dst, fmt.Errorf("%w: unknown message kind %d", ErrCorrupt, m.Kind)
	}
	p := m.Opt()
	if lazy && len(p.IDs) == 0 {
		return dst, fmt.Errorf("%w: a lazy push without ids", ErrCorrupt)
	}
	count := [...]int{recEvent: len(m.Events), recEntry: len(m.Entries), recID: len(p.IDs)}[rec]
	if max(count, len(p.IDs), len(p.Topic), len(p.Ads), len(p.FPAds)) > math.MaxUint16 || uint64(p.Pad) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: %d records, or a part beyond its length field", ErrTooLarge, count)
	}
	kind := byte(m.Kind) | p.bits()
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, kind)
	dst = binary.BigEndian.AppendUint32(dst, sender)
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	switch pre {
	case walkSize:
		dst = binary.BigEndian.AppendUint32(dst, p.Origin)
		dst = binary.BigEndian.AppendUint16(dst, p.Hops)
	case hopSize:
		dst = append(dst, m.Hop)
	}
	switch rec {
	case recEvent:
		var err error
		for _, ev := range m.Events {
			if dst, err = ev.AppendBinary(dst); err != nil {
				return dst, err
			}
		}
	case recEntry:
		dst = appendEntries(dst, m.Entries)
	case recID:
		dst = appendIDs(dst, p.IDs)
	}
	if lazy {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.IDs)))
		dst = appendIDs(dst, p.IDs)
	}
	if kind&partTopic != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Topic)))
		dst = append(dst, p.Topic...)
	}
	if kind&partAds != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Ads)))
		dst = appendEntries(dst, p.Ads)
	}
	if kind&partFP != 0 {
		dst = binary.BigEndian.AppendUint64(dst, p.FP)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.FPAds)))
		for _, ad := range p.FPAds {
			dst = binary.BigEndian.AppendUint32(dst, ad.ID)
			dst = binary.BigEndian.AppendUint64(dst, ad.FP)
		}
	}
	if kind&partPad != 0 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.Pad))
		dst = append(dst, make([]byte, p.Pad)...)
	}
	return dst, nil
}

// bits returns the kind-byte bits of the parts p sets: a part is sent
// only when it holds something.
func (p *Parts) bits() (b byte) {
	if p.Topic != "" {
		b |= partTopic
	}
	if len(p.Ads) > 0 {
		b |= partAds
	}
	if p.FP != 0 || len(p.FPAds) > 0 {
		b |= partFP
	}
	if p.Pad > 0 {
		b |= partPad
	}
	return b
}

func appendIDs(dst []byte, ids []pubsub.EventID) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, id.Publisher)
		dst = binary.BigEndian.AppendUint32(dst, id.Seq)
	}
	return dst
}

func appendEntries(dst []byte, entries []ViewEntry) []byte {
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint32(dst, e.ID)
		dst = binary.BigEndian.AppendUint16(dst, e.Age)
	}
	return dst
}

// DecodeEnvelope scans data into env. The whole buffer must be consumed
// exactly: short input, trailing bytes, a count the body does not hold,
// an empty announced part, nonzero padding or any malformed record is an
// error, and so is a lazy push without ids (it would be a second encoding
// of KindEvents); on error env holds no records, entries or parts — an
// envelope is accepted whole or not at all.
func DecodeEnvelope(data []byte, env *Envelope) error {
	x := Parts{IDs: env.Parts.IDs[:0], Ads: env.Parts.Ads[:0], FPAds: env.Parts.FPAds[:0]}
	recs, ents := env.Records[:0], env.Entries[:0]
	*env = Envelope{Records: recs, Entries: ents, Parts: x}
	if len(data) < HeaderSize {
		return fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(data), HeaderSize)
	}
	if got := binary.BigEndian.Uint16(data[0:2]); got != Magic {
		return fmt.Errorf("%w: %#04x", ErrMagic, got)
	}
	if data[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, data[2])
	}
	kind, parts := Kind(data[3]&kindMask), data[3]&^kindMask
	rec, pre, lazy, ok := kind.layout()
	if !ok {
		return fmt.Errorf("%w: unknown message kind %#02x", ErrCorrupt, kind)
	}
	env.Kind, env.Sender = kind, binary.BigEndian.Uint32(data[4:8])
	count := int(binary.BigEndian.Uint16(data[8:10]))
	// Everything reaches env only once the last byte has checked out.
	r := reader{pubsub.Reader{Buf: data, Off: HeaderSize, Short: ErrTruncated}}
	var hop uint8
	switch pre {
	case walkSize:
		x.Origin, x.Hops = r.U32(), r.U16()
	case hopSize:
		hop = r.U8()
	}
	switch rec {
	case recNone:
		if count != 0 {
			r.Fail(fmt.Errorf("%w: %d records on a kind that carries none", ErrCorrupt, count))
		}
	case recEvent:
		for i := 0; i < count && r.Err == nil; i++ {
			id, n, err := pubsub.ReadRecord(data[r.Off:], nil, nil)
			if err != nil {
				r.Fail(fmt.Errorf("record %d at offset %d: %w", i, r.Off, err))
				break
			}
			recs = append(recs, EventRecord{ID: id, Raw: data[r.Off : r.Off+n : r.Off+n]})
			r.Off += n
		}
	case recEntry:
		ents = r.entries(ents, count)
	case recID:
		x.IDs = r.ids(x.IDs, count)
	}
	if lazy {
		n := int(r.U16())
		if n == 0 && r.Err == nil {
			r.Fail(fmt.Errorf("%w: a lazy push without ids", ErrCorrupt))
		}
		x.IDs = r.ids(x.IDs, n)
	}
	if parts&partTopic != 0 {
		x.Topic = string(r.Take(int(r.U16())))
	}
	if parts&partAds != 0 {
		x.Ads = r.entries(x.Ads, int(r.U16()))
	}
	if parts&partFP != 0 {
		x.FP = r.U64()
		n := int(r.U16())
		r.fits(n, fpAdSize)
		for i := 0; i < n && r.Err == nil; i++ {
			x.FPAds = append(x.FPAds, FPAd{ID: r.U32(), FP: r.U64()})
		}
	}
	if parts&partPad != 0 {
		pad := r.Take(int(r.U32()))
		if slices.ContainsFunc(pad, func(b byte) bool { return b != 0 }) {
			r.Fail(fmt.Errorf("%w: nonzero padding", ErrCorrupt))
		}
		x.Pad = len(pad)
	}
	// A part announced but empty would be a second encoding of a message.
	if r.Err == nil && x.bits() != parts {
		r.Fail(fmt.Errorf("%w: an announced part is empty", ErrCorrupt))
	}
	if r.Err != nil {
		return r.Err
	}
	if r.Off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(data)-r.Off, count)
	}
	env.Hop, env.Records, env.Entries, env.Parts = hop, recs, ents, x
	return nil
}

// Decode materialises the record, which must be all of Raw, into an
// event that owns all of its memory — nothing in it aliases Raw — with its topic, struct and payload
// from d (nil: fresh allocations). A record DecodeEnvelope produced
// always decodes: the scan ran the same walker (pubsub.ReadRecord) over
// the same bytes.
func (rec EventRecord) Decode(d *Decoder) (*pubsub.Event, error) {
	e := d.event()
	if _, _, err := pubsub.ReadRecord(rec.Raw, e, d); err != nil {
		return nil, err
	}
	return e, nil
}

// reader is pubsub's bounds-checked cursor, failing short reads with
// ErrTruncated, plus the counted runs an envelope's body holds.
type reader struct{ pubsub.Reader }

func (r *reader) rem() int { return len(r.Buf) - r.Off }

// fits is the hostile-count guard: n cells of size bytes must fit.
func (r *reader) fits(n, size int) {
	if r.Err == nil && n*size > r.rem() {
		r.Fail(fmt.Errorf("%w: %d cells of %d bytes with %d remaining", ErrTruncated, n, size, r.rem()))
	}
}

// ids appends n event ids read off the cursor to dst.
func (r *reader) ids(dst []pubsub.EventID, n int) []pubsub.EventID {
	r.fits(n, IDWireSize)
	for i := 0; i < n && r.Err == nil; i++ {
		dst = append(dst, pubsub.EventID{Publisher: r.U32(), Seq: r.U32()})
	}
	return dst
}

// entries appends n view entries read off the cursor to dst.
func (r *reader) entries(dst []ViewEntry, n int) []ViewEntry {
	r.fits(n, EntryWireSize)
	for i := 0; i < n && r.Err == nil; i++ {
		dst = append(dst, ViewEntry{ID: r.U32(), Age: r.U16()})
	}
	return dst
}
