// Package cache is a disk-persistent, content-addressed store for
// deterministic experiment results.
//
// The simulator is deterministic per seed, so a simulation result is a pure
// function of its result-affecting inputs. A Key is a stable hash over those
// inputs (experiment identity, parameters, per-repetition seed); the store
// mixes in a caller-supplied version stamp so that any intentional change to
// simulator semantics — tracked by the golden sweep digest — addresses a
// disjoint part of the store and stale entries are never returned.
//
// Values are gob-encoded result structs wrapped in a checksummed envelope
// and written atomically (temp file + rename into place), so concurrent
// processes sharing one directory, or a crash mid-write, can never corrupt
// an entry another reader would trust. Truncated, corrupted, or
// version-mismatched entries are silently treated as misses: the caller
// recomputes and overwrites them.
//
// Every entry is a whole gob stream: the type definitions its writer sent,
// then one value. Receiving and compiling those definitions is most of what
// a fresh gob.Decoder spends on an entry, so a Store keeps one primed
// decoder per distinct definitions prefix and hands later entries with the
// same prefix only their value message. The prefix is the entry's own
// bytes, never derived from the reader's types: gob numbers types
// process-wide in first-use order, so the process that wrote an entry may
// have numbered the same result type differently from the one reading it.
//
// All Store methods are safe for concurrent use and tolerate a nil
// receiver, so callers can thread an optional *Store without nil checks.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Key is the content address of one cached result: a hash over every
// result-affecting input of the computation it memoizes.
type Key struct {
	sum [sha256.Size]byte
}

// NewKey hashes parts into a Key. Every part is tagged with its type and
// length before hashing, so neighbouring parts cannot collide by
// concatenation ("ab","c" hashes differently from "a","bc") and the same
// number hashed as a different type yields a different key. Supported part
// types: string, []byte, bool, int, int64, uint64, float64. Anything else
// panics — key construction is a correctness-critical code path and an
// unhashed field must fail loudly, not silently alias another key.
func NewKey(parts ...any) Key {
	h := sha256.New()
	var buf [9]byte
	scalar := func(tag byte, v uint64) {
		buf[0] = tag
		binary.LittleEndian.PutUint64(buf[1:], v)
		h.Write(buf[:])
	}
	blob := func(tag byte, b []byte) {
		scalar(tag, uint64(len(b)))
		h.Write(b)
	}
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			blob('s', []byte(v))
		case []byte:
			blob('b', v)
		case bool:
			if v {
				scalar('t', 1)
			} else {
				scalar('t', 0)
			}
		case int:
			scalar('i', uint64(int64(v)))
		case int64:
			scalar('i', uint64(v))
		case uint64:
			scalar('u', v)
		case float64:
			scalar('f', math.Float64bits(v))
		default:
			panic(fmt.Sprintf("cache: unhashable key part of type %T", p))
		}
	}
	var k Key
	h.Sum(k.sum[:0])
	return k
}

// Stats is a point-in-time snapshot of a store's accounting.
type Stats struct {
	// Hits and Misses count Get calls; a failed decode of an existing
	// file (truncation, corruption, version skew) counts as a miss.
	Hits, Misses uint64
	// Puts counts successfully persisted entries.
	Puts uint64
	// BytesRead and BytesWritten count on-disk envelope bytes moved by
	// hits and puts respectively.
	BytesRead, BytesWritten uint64
}

// Store is one cache directory. Entries live two levels deep
// (dir/aa/<hex>.gob) under an address that mixes the store's version stamp
// into every key, so stores opened on the same directory with different
// stamps see disjoint entry sets.
type Store struct {
	dir     string
	version [sha256.Size]byte

	hits, misses, puts      atomic.Uint64
	bytesRead, bytesWritten atomic.Uint64

	mu       sync.Mutex
	decoders map[string]*decoder // keyed by definitions prefix
}

// decoder is a gob.Decoder that has received one definitions prefix, so it
// decodes a value message written after that prefix without receiving or
// compiling the definitions again.
type decoder struct {
	mu  sync.Mutex
	src bytes.Reader // an io.ByteReader, so gob reads it without buffering ahead
	dec *gob.Decoder
}

// Open creates (if needed) and opens the cache directory. The version
// stamp becomes part of every entry address: bumping it invalidates the
// whole store without touching files.
func Open(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{
		dir:      dir,
		version:  sha256.Sum256([]byte(version)),
		decoders: make(map[string]*decoder),
	}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// addr is the on-disk path of key under this store's version stamp.
func (s *Store) addr(k Key) string {
	h := sha256.New()
	h.Write(s.version[:])
	h.Write(k.sum[:])
	hx := hex.EncodeToString(h.Sum(nil))
	return filepath.Join(s.dir, hx[:2], hx[2:]+".gob")
}

// envelope framing: magic, payload length, payload checksum, payload.
const envMagic = "GVC1"

var envHeaderLen = len(envMagic) + 8 + sha256.Size

// sealEnvelope frames a gob payload for storage.
func sealEnvelope(payload []byte) []byte {
	out := make([]byte, 0, envHeaderLen+len(payload))
	out = append(out, envMagic...)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	out = append(out, n[:]...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// openEnvelope validates framing and checksum, returning the payload.
func openEnvelope(data []byte) ([]byte, bool) {
	if len(data) < envHeaderLen || string(data[:len(envMagic)]) != envMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[len(envMagic) : len(envMagic)+8])
	payload := data[envHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(envMagic)+8:envHeaderLen]) {
		return nil, false
	}
	return payload, true
}

// splitStream splits a gob stream at its first value message: defs are the
// type-definition messages before it, value the rest of the stream. Gob
// frames each message as an unsigned byte count followed by a signed type
// id, negative for a definition.
func splitStream(p []byte) (defs, value []byte, ok bool) {
	for off := 0; off < len(p); {
		n, w := gobUint(p[off:])
		if w == 0 || n == 0 || n > uint64(len(p)-off-w) {
			return nil, nil, false
		}
		end := off + w + int(n)
		id, iw := gobUint(p[off+w : end])
		if iw == 0 {
			return nil, nil, false
		}
		if id&1 == 0 { // a non-negative id: a value
			return p[:off], p[off:], true
		}
		off = end
	}
	return nil, nil, false
}

// gobUint decodes the gob unsigned integer at the front of b and returns it
// with its width in bytes, or width 0 if b does not start with one.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// Get looks key up and gob-decodes the entry into out (which must be a
// pointer to a zero value of the type Put stored; on a decode failure out
// may be partially populated and must be discarded). It reports whether a
// valid entry was found; any read, framing, checksum, or decode failure is
// a miss, never an error — the caller recomputes.
//
// An entry whose definitions prefix the store has decoded before is read by
// that prefix's primed decoder from its value message alone; the first
// entry with a prefix is decoded in full and primes one. A decode error or
// unread bytes discard the decoder. A decoder's lock is held only while it
// decodes; the file read, checksum and framing parse run outside it.
func (s *Store) Get(key Key, out any) bool {
	if s == nil {
		return false
	}
	data, err := os.ReadFile(s.addr(key))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	payload, ok := openEnvelope(data)
	if ok {
		ok = s.decode(payload, out)
	}
	if !ok {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(data)))
	return true
}

// decode reads one gob stream into out through the primed decoder of its
// definitions prefix, priming one if the store has none for it yet. Gob
// reads exactly one value, so bytes left after it, such as a second value,
// make the entry a miss.
func (s *Store) decode(payload []byte, out any) bool {
	defs, value, ok := splitStream(payload)
	if !ok {
		return false
	}
	s.mu.Lock()
	d := s.decoders[string(defs)]
	s.mu.Unlock()
	if d == nil {
		d = &decoder{}
		d.src.Reset(payload)
		d.dec = gob.NewDecoder(&d.src)
		if d.dec.Decode(out) != nil || d.src.Len() != 0 {
			return false
		}
		d.src.Reset(nil)
		s.mu.Lock()
		s.decoders[string(defs)] = d
		s.mu.Unlock()
		return true
	}
	d.mu.Lock()
	d.src.Reset(value)
	ok = d.dec.Decode(out) == nil && d.src.Len() == 0
	d.src.Reset(nil)
	d.mu.Unlock()
	if !ok {
		s.mu.Lock()
		if s.decoders[string(defs)] == d {
			delete(s.decoders, string(defs))
		}
		s.mu.Unlock()
	}
	return ok
}

// Put persists val under key, atomically: the envelope is written to a
// temp file in the destination directory and renamed into place, so a
// concurrent reader sees either the old complete entry or the new one,
// and a crash leaves at worst an orphaned temp file. Concurrent writers
// of the same key are deterministic-by-construction (same inputs, same
// bytes), so last-rename-wins is safe.
func (s *Store) Put(key Key, val any) error {
	if s == nil {
		return nil
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(val); err != nil {
		return fmt.Errorf("cache: encode: %w", err)
	}
	data := sealEnvelope(payload.Bytes())
	path := s.addr(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(data)))
	return nil
}

// Clear removes every entry (all version stamps); the store stays usable.
func (s *Store) Clear() error {
	if s == nil {
		return nil
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return os.MkdirAll(s.dir, 0o755)
}

// Stats snapshots the store's counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}
