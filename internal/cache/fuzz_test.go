package cache

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzOpenEnvelope drives the GVC1 envelope decoder with arbitrary bytes.
// The cache's contract is that a corrupted or truncated entry is a silent
// miss, never a panic or an error, so the decoder must hold three
// properties under fuzzing:
//
//  1. it never panics, whatever the input;
//  2. when it accepts, the envelope is canonical: re-sealing the returned
//     payload reproduces the input byte for byte (no malleable framing);
//  3. sealed data round-trips, and any single-byte corruption or one-byte
//     truncation of a sealed envelope is rejected — every byte of the
//     frame is covered by the magic, the length, or the checksum.
func FuzzOpenEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GVC1"))
	f.Add([]byte("GVC1 short header"))
	f.Add(sealEnvelope(nil))
	f.Add(sealEnvelope([]byte("payload")))
	corrupt := sealEnvelope([]byte("corrupt me"))
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := openEnvelope(data); ok {
			if resealed := sealEnvelope(payload); !bytes.Equal(resealed, data) {
				t.Fatalf("accepted envelope is not canonical: reseal differs (%d vs %d bytes)", len(resealed), len(data))
			}
		}

		sealed := sealEnvelope(data)
		got, ok := openEnvelope(sealed)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("sealed payload did not round-trip (ok=%v)", ok)
		}
		if _, ok := openEnvelope(sealed[:len(sealed)-1]); ok {
			t.Fatal("truncated envelope accepted")
		}
		flipped := append([]byte(nil), sealed...)
		flipped[len(data)%len(sealed)] ^= 0x5a
		if _, ok := openEnvelope(flipped); ok {
			t.Fatal("corrupted envelope accepted")
		}
	})
}

// FuzzStoreGetCorrupted plants arbitrary bytes where a cache entry would
// live and asserts Get treats whatever it finds as, at worst, a miss: no
// panic, and a hit only for data that really is a sealed gob of the
// expected shape.
func FuzzStoreGetCorrupted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not an envelope"))
	f.Add(sealEnvelope([]byte("sealed but not gob")))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := mustOpen(t, t.TempDir(), "fuzz-v1")
		key := NewKey("fuzz", "entry")
		plant(t, s, key, data)
		var out payload
		if s.Get(key, &out) {
			// A hit is only legitimate if the bytes were a valid envelope.
			if _, ok := openEnvelope(data); !ok {
				t.Fatal("Get reported a hit on an invalid envelope")
			}
		}
	})
}

// FuzzStoreGetPayload drives the gob decode path, which FuzzStoreGetCorrupted
// almost never reaches past the checksum: it seals the fuzzed bytes so they
// pass as an intact entry and reads them through a store whose decoder is
// already primed with the expected definitions. Whatever the bytes, Get
// must not panic, and a valid entry Put afterwards must still hit and
// decode to what was stored.
func FuzzStoreGetPayload(f *testing.F) {
	want := samplePayload()
	stream := gobStream(f, want)
	defs, value, _ := splitStream(stream)
	f.Add([]byte{})
	f.Add(stream)
	f.Add(defs)
	f.Add(value)
	f.Add(append(append([]byte(nil), stream...), 0x00))
	f.Add(append(append([]byte(nil), stream...), value...))
	f.Add(append(append([]byte(nil), defs...), badValue(value)...))
	f.Add(gobStream(f, other{Label: "x", Counts: []uint64{1}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := mustOpen(t, t.TempDir(), "fuzz-v1")
		primer := NewKey("fuzz", "primer")
		if err := s.Put(primer, want); err != nil {
			t.Fatal(err)
		}
		var got payload
		if !s.Get(primer, &got) {
			t.Fatal("valid entry missed")
		}
		plant(t, s, NewKey("fuzz", "entry"), sealEnvelope(data))
		var out payload
		s.Get(NewKey("fuzz", "entry"), &out)

		after := NewKey("fuzz", "after")
		if err := s.Put(after, want); err != nil {
			t.Fatal(err)
		}
		got = payload{}
		if !s.Get(after, &got) {
			t.Fatal("valid entry missed after a fuzzed one")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("valid entry decoded as %+v, want %+v", got, want)
		}
	})
}
