// Package wire is the binary codec for the live runtime's message
// vocabulary: events (with typed attributes and payload), event IDs,
// membership view entries, and the envelope that frames each protocol
// message with its kind and sender — event gossip (KindEvents) and the
// membership traffic (KindShuffleOffer, KindShuffleReply, KindJoin,
// KindLeave).
//
// The format is compact, big-endian, and length-prefixed at every
// variable-size field. An envelope is a fixed 16-byte header followed by
// the kind's records back to back: event records are self-delimiting
// (topic, attribute keys, string values and payload all carry explicit
// lengths), membership entries are fixed 6-byte cells, and in both cases
// the decoder walks the body with a bounds-checked cursor and must land
// exactly on the last byte. Decoding is hardened against truncated and
// hostile input: it never panics, never reads past the buffer, validates
// every kind/flag byte, and cross-checks the header's count and
// body-length fields against what it actually consumed (FuzzWireDecode
// keeps it that way).
//
// Two deliberate invariants tie the codec to the rest of the system:
//
//   - An event record's layout is byte-for-byte the pubsub
//     MarshalBinary layout, so pubsub.Event.WireSize is the exact
//     encoded size of a record.
//   - EnvelopeSize(events) == gossip.MsgWireSize(events): the 16-byte
//     envelope header matches gossip.MsgHeaderSize. Fairness accounting
//     has always charged MsgWireSize; with this codec the number of
//     bytes charged and the number of bytes on the wire are the same
//     number, which keeps ChanTransport ledgers byte-identical to the
//     pre-codec live runtime. The same discipline extends to membership
//     traffic: EntryWireSize == membership.EntryWireSize, so the shuffle
//     bytes the ledger charges as infrastructure contribution are
//     exactly the bytes a shuffle envelope occupies on the wire.
//
// Encoding is allocation-conscious: Append* functions append into a
// caller-provided buffer, so a sender can encode a fanout's envelope
// once into reused scratch and send the same bytes to every destination.
//
// Decoding is two steps, because push gossip delivers most events many
// times over and a receiver throws every copy but the first away.
// DecodeEnvelope is a validating scan: it checks the whole envelope and
// allocates nothing, leaving each event as an EventRecord — its ID plus
// the record's bytes, still inside the input buffer. EventRecord.Decode
// materialises one record into an event that owns all its memory, and
// a receiver calls it only for the IDs it has not seen, through its own
// Decoder, whose slabs make that cost a fraction of an allocation. Scan and
// materialise are one walker (walkEvent), so they cannot disagree about
// what is well-formed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fairgossip/internal/pubsub"
)

// Wire constants.
const (
	// Magic identifies a fairgossip envelope (first two header bytes).
	Magic uint16 = 0xFA15
	// Version is the only envelope version this codec speaks.
	Version byte = 1
	// HeaderSize is the fixed envelope header:
	// magic(2) version(1) kind(1) sender(4) count(2) reserved(2) body(4).
	// It deliberately equals gossip.MsgHeaderSize so encoded bytes equal
	// accounted bytes.
	HeaderSize = 16
	// EntryWireSize is the encoded size of one membership view entry:
	// id(4) + age(2). It equals membership.EntryWireSize, the accounting
	// size the simulated runtime has always charged per entry.
	EntryWireSize = 6
	// eventMinSize is the smallest possible event record: id(8) +
	// topicLen(2) + attrCount(2) + payloadLen(4), all lengths zero.
	eventMinSize = 16
	// attrMinSize is the smallest possible attribute: keyLen(2) + empty
	// key + kind(1) + bool payload(1).
	attrMinSize = 4
)

// Message kinds (header byte 3). KindEvents is 0, which makes every
// pre-kind envelope (the byte was "flags, must be zero") decode
// unchanged as an event batch.
const (
	// KindEvents frames a batch of event records — gossip dissemination.
	KindEvents byte = 0
	// KindShuffleOffer carries the initiator's half of a Cyclon view
	// shuffle: a batch of membership entries.
	KindShuffleOffer byte = 1
	// KindShuffleReply answers an offer (or a join) with entries from
	// the responder's view.
	KindShuffleReply byte = 2
	// KindJoin announces a booting peer to its seed. The sender field
	// identifies the joiner; the body carries its (usually empty) view.
	KindJoin byte = 3
	// KindLeave announces a graceful departure: the sender is leaving
	// and hands the receiver its freshest view entries as replacement
	// contacts, so the overlay loses an address without losing degree.
	KindLeave byte = 4

	// maxKind is the highest kind this codec speaks.
	maxKind = KindLeave
)

// ViewEntry is one membership view slot on the wire: a peer id and the
// age (in shuffle periods, saturated at 65535) of the information about
// it. It mirrors membership.Entry without importing protocol logic into
// the codec.
type ViewEntry struct {
	ID  uint32
	Age uint16
}

// Decode errors. Errors wrap one of these sentinels; decode never
// panics and never reads outside the input buffer.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrCorrupt   = errors.New("wire: corrupt message")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrTooLarge  = errors.New("wire: message exceeds encodable limits")
)

// Envelope is one scanned protocol message: its kind, the sending
// peer, and the kind's payload — Records for KindEvents, Entries for
// the membership kinds (the other slice is always empty).
// DecodeEnvelope reuses the Records and Entries backing arrays across
// calls. Records alias the buffer DecodeEnvelope was given: they are
// valid only while that buffer is, must be treated as read-only, and
// must not outlive the call that received the buffer (a receiver may
// release it for reuse right after). Events produced by
// EventRecord.Decode never alias it.
type Envelope struct {
	Kind    byte
	Sender  uint32
	Records []EventRecord
	Entries []ViewEntry
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

// Decoder is one receiver's memory for the events it materialises.
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

func (d *Decoder) intern(b []byte) string {
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

// payload returns a copy of b with capacity len(b): carved from the
// payload slab, or a fresh allocation for a nil d or a payload above
// maxSlabPayload.
func (d *Decoder) payload(b []byte) []byte {
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
// produce for this batch. It equals gossip.MsgWireSize(events), the
// size fairness accounting has always charged.
func EnvelopeSize(events []*pubsub.Event) int {
	n := HeaderSize
	for _, ev := range events {
		n += ev.WireSize()
	}
	return n
}

// AppendEnvelope appends the encoded envelope to dst and returns the
// extended slice. On error the returned slice may hold a partial
// encoding and must be discarded.
func AppendEnvelope(dst []byte, sender uint32, events []*pubsub.Event) ([]byte, error) {
	if len(events) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d events in one envelope", ErrTooLarge, len(events))
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, KindEvents)
	dst = binary.BigEndian.AppendUint32(dst, sender)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(events)))
	dst = binary.BigEndian.AppendUint16(dst, 0) // reserved (must be zero)
	dst = binary.BigEndian.AppendUint32(dst, 0) // body length, patched below
	var err error
	for _, ev := range events {
		if dst, err = AppendEvent(dst, ev); err != nil {
			return dst, err
		}
	}
	// The body length is measured off what was actually appended — the
	// hot path already walked every event once for EnvelopeSize; no need
	// to do it again here.
	body := len(dst) - start - HeaderSize
	if uint64(body) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: %d body bytes", ErrTooLarge, body)
	}
	binary.BigEndian.PutUint32(dst[start+12:start+16], uint32(body))
	return dst, nil
}

// DecodeEnvelope scans data into env without allocating (once env's
// backing arrays have grown). The whole buffer must be consumed exactly:
// short input, trailing bytes, a count/body-length mismatch, or any
// malformed record anywhere is an error, and on error env holds no
// records — an envelope is accepted whole or not at all.
func DecodeEnvelope(data []byte, env *Envelope) error {
	env.Kind = KindEvents
	env.Sender = 0
	env.Records = env.Records[:0]
	env.Entries = env.Entries[:0]
	if len(data) < HeaderSize {
		return fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(data), HeaderSize)
	}
	if got := binary.BigEndian.Uint16(data[0:2]); got != Magic {
		return fmt.Errorf("%w: %#04x", ErrMagic, got)
	}
	if data[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, data[2])
	}
	if data[3] > maxKind {
		return fmt.Errorf("%w: unknown message kind %#02x", ErrCorrupt, data[3])
	}
	env.Kind = data[3]
	env.Sender = binary.BigEndian.Uint32(data[4:8])
	count := int(binary.BigEndian.Uint16(data[8:10]))
	if rsv := binary.BigEndian.Uint16(data[10:12]); rsv != 0 {
		return fmt.Errorf("%w: nonzero reserved field %#04x", ErrCorrupt, rsv)
	}
	body := int(binary.BigEndian.Uint32(data[12:16]))
	if body != len(data)-HeaderSize {
		return fmt.Errorf("%w: header claims %d body bytes, have %d", ErrCorrupt, body, len(data)-HeaderSize)
	}
	if env.Kind != KindEvents {
		// Membership kinds: the body is exactly count fixed-size cells.
		if body != count*EntryWireSize {
			return fmt.Errorf("%w: %d entries need %d body bytes, have %d",
				ErrCorrupt, count, count*EntryWireSize, body)
		}
		for off := HeaderSize; off < len(data); off += EntryWireSize {
			env.Entries = append(env.Entries, ViewEntry{
				ID:  binary.BigEndian.Uint32(data[off : off+4]),
				Age: binary.BigEndian.Uint16(data[off+4 : off+6]),
			})
		}
		return nil
	}
	// Cheap hostile-count guard before the Records array grows.
	if count*eventMinSize > body {
		return fmt.Errorf("%w: %d events cannot fit in %d body bytes", ErrCorrupt, count, body)
	}
	// Records reach env only once the last byte has checked out.
	recs := env.Records
	r := reader{buf: data, off: HeaderSize}
	for i := 0; i < count; i++ {
		start := r.off
		id := walkEvent(&r, nil, nil)
		if r.err != nil {
			return r.err
		}
		recs = append(recs, EventRecord{ID: id, Raw: data[start:r.off:r.off]})
	}
	if r.off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after %d events", ErrCorrupt, len(data)-r.off, count)
	}
	env.Records = recs
	return nil
}

// MembershipSize returns the exact number of bytes AppendMembership
// will produce for n entries — HeaderSize + n·EntryWireSize, the same
// formula the simulated runtime's accounting charges for shuffle
// traffic, so ledger bytes and wire bytes are one number here too.
func MembershipSize(n int) int { return HeaderSize + n*EntryWireSize }

// AppendMembership appends an encoded membership envelope (a shuffle
// offer, shuffle reply, join, or leave) to dst and returns the extended
// slice.
func AppendMembership(dst []byte, kind byte, sender uint32, entries []ViewEntry) ([]byte, error) {
	switch kind {
	case KindShuffleOffer, KindShuffleReply, KindJoin, KindLeave:
	default:
		return dst, fmt.Errorf("%w: %#02x is not a membership kind", ErrCorrupt, kind)
	}
	if len(entries) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d entries in one envelope", ErrTooLarge, len(entries))
	}
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, kind)
	dst = binary.BigEndian.AppendUint32(dst, sender)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(entries)))
	dst = binary.BigEndian.AppendUint16(dst, 0) // reserved (must be zero)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)*EntryWireSize))
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint32(dst, e.ID)
		dst = binary.BigEndian.AppendUint16(dst, e.Age)
	}
	return dst, nil
}

// AppendEvent appends one event record to dst — the exact pubsub
// MarshalBinary layout, appended instead of allocated. On error the
// returned slice may hold a partial encoding and must be discarded.
func AppendEvent(dst []byte, e *pubsub.Event) ([]byte, error) {
	if len(e.Topic) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: topic of %d bytes", ErrTooLarge, len(e.Topic))
	}
	if len(e.Attrs) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: %d attributes", ErrTooLarge, len(e.Attrs))
	}
	if uint64(len(e.Payload)) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: payload of %d bytes", ErrTooLarge, len(e.Payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, e.ID.Publisher)
	dst = binary.BigEndian.AppendUint32(dst, e.ID.Seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Topic)))
	dst = append(dst, e.Topic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Attrs)))
	for _, a := range e.Attrs {
		if len(a.Key) > math.MaxUint16 {
			return dst, fmt.Errorf("%w: attribute key of %d bytes", ErrTooLarge, len(a.Key))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Key)))
		dst = append(dst, a.Key...)
		dst = append(dst, byte(a.Val.Kind()))
		switch a.Val.Kind() {
		case pubsub.KindString:
			s := a.Val.Str()
			if len(s) > math.MaxUint16 {
				return dst, fmt.Errorf("%w: attribute value of %d bytes", ErrTooLarge, len(s))
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
			dst = append(dst, s...)
		case pubsub.KindNum:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Val.NumVal()))
		case pubsub.KindBool:
			if a.Val.BoolVal() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			return dst, fmt.Errorf("%w: attribute %q has an invalid value", ErrCorrupt, a.Key)
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Payload)))
	dst = append(dst, e.Payload...)
	return dst, nil
}

// Decode materialises the record, consuming Raw exactly (the framing
// pubsub.Event.UnmarshalBinary enforces too), into an event that owns all
// of its memory — nothing in it aliases Raw — with its topic, struct and
// payload from d (nil: fresh allocations). A record DecodeEnvelope
// produced always decodes: the scan ran the same walker over the same
// bytes.
func (rec EventRecord) Decode(d *Decoder) (*pubsub.Event, error) {
	r := reader{buf: rec.Raw}
	var ev pubsub.Event
	walkEvent(&r, &ev, d)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(rec.Raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rec.Raw)-r.off)
	}
	e := d.event()
	*e = ev
	return e, nil
}

// walkEvent is the one event-record walker: it advances the reader over
// the record at its cursor, applying every well-formedness check, and
// returns the record's id. A nil e makes it a pure scan that allocates
// nothing; otherwise it also fills e with copies of everything it
// walks, the topic and payload via d. Malformed input sets r.err (e is
// garbage).
func walkEvent(r *reader, e *pubsub.Event, d *Decoder) pubsub.EventID {
	id := pubsub.EventID{Publisher: r.u32(), Seq: r.u32()}
	topic := r.take(int(r.u16()))
	nattrs := int(r.u16())
	if r.err == nil && nattrs*attrMinSize > r.rem() {
		r.fail(fmt.Errorf("%w: %d attributes cannot fit in %d bytes", ErrCorrupt, nattrs, r.rem()))
	}
	if e != nil && r.err == nil {
		e.ID = id
		e.Topic = d.intern(topic)
		if nattrs > 0 {
			e.Attrs = make([]pubsub.Attr, 0, nattrs)
		}
	}
	for i := 0; i < nattrs && r.err == nil; i++ {
		key := r.take(int(r.u16()))
		kind := pubsub.Kind(r.u8())
		var v pubsub.Value
		switch kind {
		case pubsub.KindString:
			s := r.take(int(r.u16()))
			if e != nil {
				v = pubsub.String(string(s))
			}
		case pubsub.KindNum:
			v = pubsub.Num(math.Float64frombits(r.u64()))
		case pubsub.KindBool:
			switch r.u8() {
			case 0:
				v = pubsub.Bool(false)
			case 1:
				v = pubsub.Bool(true)
			default:
				r.fail(fmt.Errorf("%w: invalid bool byte", ErrCorrupt))
			}
		default:
			r.fail(fmt.Errorf("%w: invalid attribute kind %d", ErrCorrupt, kind))
		}
		if e != nil && r.err == nil {
			e.Attrs = append(e.Attrs, pubsub.Attr{Key: string(key), Val: v})
		}
	}
	plen := int(r.u32())
	if r.err == nil && plen > r.rem() {
		r.fail(fmt.Errorf("%w: payload of %d bytes with %d remaining", ErrTruncated, plen, r.rem()))
	}
	payload := r.take(plen)
	if e != nil && len(payload) > 0 {
		e.Payload = d.payload(payload)
	}
	return id
}

// reader is a bounds-checked cursor that records the first error and
// then no-ops, so decode paths read linearly without per-field
// branching.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf)))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
