package wire

import (
	"bytes"
	"testing"

	"fairgossip/internal/pubsub"
)

// FuzzWireDecode hardens the decoder against arbitrary input. Four
// properties, from a corpus seeded with real encoded envelopes of every
// kind and every optional part:
//
//  1. DecodeEnvelope never panics and never over-reads, whatever the
//     bytes (the fuzz engine explores truncations, bit flips, and
//     hostile length fields from the seeds).
//  2. The scan is the only gate a receiver has, so what it accepts must
//     be materialisable: every record's Decode succeeds, the id the
//     scan read is the event's, Raw is exactly the event's WireSize
//     bytes, and the records back to back are exactly the bytes they
//     were read from.
//  3. The format is canonical: when the scan succeeds, re-encoding the
//     decoded envelope reproduces the input byte for byte, and Size
//     says so. Every field is either fixed, exactly validated, or
//     round-tripped at the bit level (floats), so there is exactly one
//     encoding per message.
//  4. Slabs change nothing: every record decoded through one Decoder the
//     whole envelope shares equals the same record decoded fresh, checked
//     once the last record has been carved.
func FuzzWireDecode(f *testing.F) {
	for _, ev := range []*pubsub.Event{
		{},
		{ID: pubsub.EventID{Publisher: 1, Seq: 1}, Topic: "news.eu", Payload: []byte("ECB holds rates")},
		{
			ID:    pubsub.EventID{Publisher: 9, Seq: 201},
			Topic: "ticks",
			Attrs: []pubsub.Attr{
				{Key: "symbol", Val: pubsub.String("ACME")},
				{Key: "price", Val: pubsub.Num(101.25)},
				{Key: "halted", Val: pubsub.Bool(false)},
			},
			Payload: bytes.Repeat([]byte{0xab}, 64),
		},
	} {
		one, err := AppendEnvelope(nil, 3, []*pubsub.Event{ev})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(one)
	}
	batch := []*pubsub.Event{
		{ID: pubsub.EventID{Publisher: 2, Seq: 7}, Topic: "a", Payload: []byte("x")},
		{ID: pubsub.EventID{Publisher: 2, Seq: 8}, Topic: "b",
			Attrs: []pubsub.Attr{{Key: "k", Val: pubsub.Num(1)}}},
	}
	multi, err := AppendEnvelope(nil, 2, batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	// Membership vocabulary: offers, replies, joins and leaves, empty
	// and full.
	entries := []ViewEntry{{ID: 4, Age: 0}, {ID: 90, Age: 3}, {ID: 0xffffffff, Age: 0xffff}}
	for _, kind := range []Kind{KindOffer, KindReply, KindJoin, KindLeave} {
		for _, n := range []int{0, len(entries)} {
			m, err := Append(nil, 17, &Msg{Kind: kind, Entries: entries[:n]})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(m)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xfa, 0x15})
	// More than two slabs of events, payload sizes varying (one empty),
	// so slab refills are in the seed corpus.
	batch = batch[:0]
	for i := 0; i < 2*slabEvents+3; i++ {
		batch = append(batch, &pubsub.Event{ID: pubsub.EventID{Publisher: 4, Seq: uint32(i)},
			Topic: "s", Payload: bytes.Repeat([]byte{byte(i)}, (i*37)%101)})
	}
	slabs, err := AppendEnvelope(nil, 4, batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(slabs)
	// Every kind only the simulator sends, and every optional part.
	for _, m := range sampleMsgs() {
		b, err := Append(nil, 6, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if err := DecodeEnvelope(data, &env); err != nil {
			return // rejected: fine, as long as it did not panic
		}
		var body []byte
		for _, rec := range env.Records {
			body = append(body, rec.Raw...)
		}
		_, pre, _, _ := env.Kind.layout()
		at := HeaderSize + pre
		if !bytes.Equal(body, data[at:at+len(body)]) {
			t.Fatalf("records do not tile the bytes they came from:\n in  %x\n got %x", data[at:], body)
		}
		var dec Decoder
		slabbed := decodeAll(t, &env, &dec)
		m := msgOf(t, &env, nil)
		for i := range m.Events {
			eventsEqual(t, slabbed[i], m.Events[i])
		}
		back, err := Append(nil, env.Sender, &m)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(back, data) || m.Size() != len(data) {
			t.Fatalf("non-canonical encoding accepted (Size %d):\n in  %x\n out %x", m.Size(), data, back)
		}
	})
}
