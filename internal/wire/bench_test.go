package wire

import (
	"testing"

	"fairgossip/internal/pubsub"
)

// benchBatch is a realistic gossip message: 8 events with a couple of
// attributes and a 64-byte payload each (the scenario workload shape).
func benchBatch() []*pubsub.Event {
	batch := make([]*pubsub.Event, 8)
	for i := range batch {
		batch[i] = &pubsub.Event{
			ID:    pubsub.EventID{Publisher: uint32(i), Seq: uint32(i * 7)},
			Topic: "topic.12",
			Attrs: []pubsub.Attr{
				{Key: "price", Val: pubsub.Num(101.25)},
				{Key: "symbol", Val: pubsub.String("ACME")},
			},
			Payload: make([]byte, 64),
		}
	}
	return batch
}

// BenchmarkWireEncode measures envelope encoding into a reused buffer —
// the per-round sender cost on the live hot path (0 allocs/op once the
// buffer has grown).
func BenchmarkWireEncode(b *testing.B) {
	batch := benchBatch()
	buf := make([]byte, 0, EnvelopeSize(batch))
	b.ReportAllocs()
	b.SetBytes(int64(EnvelopeSize(batch)))
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendEnvelope(buf[:0], 1, batch)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchEntries is a full-length shuffle offer (the default ShuffleLen).
func benchEntries() []ViewEntry {
	entries := make([]ViewEntry, 8)
	for i := range entries {
		entries[i] = ViewEntry{ID: uint32(i * 13), Age: uint16(i)}
	}
	return entries
}

// BenchmarkWireEncodeShuffle measures membership-envelope encoding into
// a reused buffer — the per-shuffle sender cost.
func BenchmarkWireEncodeShuffle(b *testing.B) {
	entries := benchEntries()
	m := Msg{Kind: KindOffer, Entries: entries}
	buf := make([]byte, 0, m.Size())
	b.ReportAllocs()
	b.SetBytes(int64(m.Size()))
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Append(buf[:0], 1, &m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeShuffle measures membership-envelope decoding with
// a reused Envelope — the per-shuffle receiver cost.
func BenchmarkWireDecodeShuffle(b *testing.B) {
	buf, err := Append(nil, 1, &Msg{Kind: KindOffer, Entries: benchEntries()})
	if err != nil {
		b.Fatal(err)
	}
	var env Envelope
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := DecodeEnvelope(buf, &env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireScan measures the validating scan with a reused Envelope
// — the per-datagram receiver cost, paid for every copy of every event
// (0 allocs/op: records point into the input).
func BenchmarkWireScan(b *testing.B) {
	buf, err := AppendEnvelope(nil, 1, benchBatch())
	if err != nil {
		b.Fatal(err)
	}
	var env Envelope
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := DecodeEnvelope(buf, &env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireScanDecode adds materialising every record — what a
// receiver pays for an envelope in which every event is new to it (the
// decoded events are the receiver's own, carved from its Decoder's slabs,
// their topic from its table; attributes are still allocated per event).
func BenchmarkWireScanDecode(b *testing.B) {
	buf, err := AppendEnvelope(nil, 1, benchBatch())
	if err != nil {
		b.Fatal(err)
	}
	var env Envelope
	var dec Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := DecodeEnvelope(buf, &env); err != nil {
			b.Fatal(err)
		}
		for _, rec := range env.Records {
			if _, err := rec.Decode(&dec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
