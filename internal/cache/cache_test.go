package cache

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// payload is a representative result shape: nested struct, slices, floats.
type payload struct {
	Name   string
	Seed   uint64
	Values []float64
	Nested struct{ A, B int }
	Ratio  float64
}

func samplePayload() payload {
	p := payload{Name: "cubic/1500", Seed: 0xdeadbeef, Values: []float64{1.5, 2.25, -0.125}, Ratio: 0.75}
	p.Nested.A, p.Nested.B = 7, 42
	return p
}

func mustOpen(t *testing.T, dir, version string) *Store {
	t.Helper()
	s, err := Open(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v1")
	key := NewKey("exp", uint64(1), 1500)
	want := samplePayload()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(key, &got) {
		t.Fatal("fresh entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mangled value:\n got %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 hit / 0 misses / 1 put", st)
	}
	if st.BytesRead == 0 || st.BytesWritten == 0 || st.BytesRead != st.BytesWritten {
		t.Fatalf("byte accounting %+v", st)
	}
}

func TestAbsentKeyMisses(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v1")
	var got payload
	if s.Get(NewKey("never-stored"), &got) {
		t.Fatal("absent key hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 miss", st)
	}
}

// TestNilStore: a nil *Store must behave as a disabled cache, not panic.
func TestNilStore(t *testing.T) {
	var s *Store
	if s.Get(NewKey("x"), &payload{}) {
		t.Fatal("nil store hit")
	}
	if err := s.Put(NewKey("x"), samplePayload()); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats %+v", st)
	}
	if s.Dir() != "" {
		t.Fatal("nil store dir")
	}
}

// entryFiles lists every entry file under the store.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".gob" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTruncatedEntryIsAMiss: a crash that truncates an entry (or a partial
// copy) must fall back to recompute, not error or return garbage.
func TestTruncatedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v1")
	key := NewKey("trunc")
	if err := s.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 entry file, found %v", files)
	}
	for _, n := range []int64{0, 3, int64(envHeaderLen) - 1, int64(envHeaderLen) + 2} {
		if err := os.Truncate(files[0], n); err != nil {
			t.Fatal(err)
		}
		var got payload
		if s.Get(key, &got) {
			t.Fatalf("entry truncated to %d bytes still hit", n)
		}
	}
	// Recompute path: overwriting the damaged entry restores it.
	if err := s.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(key, &got) {
		t.Fatal("rewritten entry missed")
	}
}

// TestCorruptedEntryIsAMiss: bit rot anywhere in the payload must be caught
// by the checksum and treated as a miss.
func TestCorruptedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v1")
	key := NewKey("corrupt")
	if err := s.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	file := entryFiles(t, dir)[0]
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the payload, one in the checksum, one in the magic.
	for _, i := range []int{len(data) - 1, len(envMagic) + 8 + 1, 0} {
		mangled := append([]byte(nil), data...)
		mangled[i] ^= 0x40
		if err := os.WriteFile(file, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if s.Get(key, &got) {
			t.Fatalf("entry with byte %d flipped still hit", i)
		}
	}
}

// TestVersionMismatchIsAMiss: a store opened with a different version stamp
// must not see entries written under the old stamp, and the old stamp's
// entries must survive untouched.
func TestVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := NewKey("versioned")
	v1 := mustOpen(t, dir, "sim-digest-aaaa")
	if err := v1.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	v2 := mustOpen(t, dir, "sim-digest-bbbb")
	var got payload
	if v2.Get(key, &got) {
		t.Fatal("version-mismatched entry hit")
	}
	// The new version writes its own entry; both coexist.
	if err := v2.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if !v2.Get(key, &got) || !v1.Get(key, &got) {
		t.Fatal("entries under distinct stamps should coexist")
	}
	if len(entryFiles(t, dir)) != 2 {
		t.Fatalf("expected 2 entry files, found %v", entryFiles(t, dir))
	}
}

// other is a second result shape, so the store keeps two primed decoders.
type other struct {
	Label  string
	Counts []uint64
	Mean   float64
}

// TestConcurrentWriters: many goroutines putting and getting the same and
// distinct keys concurrently, interleaving two value types, must never
// error, corrupt an entry, or let a reader observe a torn write (run under
// -race in CI).
func TestConcurrentWriters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v1")
	const (
		workers = 8
		keys    = 4
		rounds  = 20
	)
	want := make([]any, keys)
	for k := range want {
		if k%2 == 0 {
			p := samplePayload()
			p.Seed = uint64(k)
			want[k] = p
		} else {
			want[k] = other{Label: "other", Counts: []uint64{uint64(k), 3}, Mean: 0.5 * float64(k)}
		}
	}
	// get decodes key k into a fresh value of want[k]'s type.
	get := func(k int) (any, bool) {
		out := reflect.New(reflect.TypeOf(want[k]))
		ok := s.Get(NewKey("concurrent", k), out.Interface())
		return out.Elem().Interface(), ok
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				if err := s.Put(NewKey("concurrent", k), want[k]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got, ok := get(k); ok && !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d observed torn/mixed entry: %+v", w, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range want {
		got, ok := get(k)
		if !ok {
			t.Fatalf("key %d missing after concurrent writes", k)
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("key %d corrupted: %+v", k, got)
		}
	}
}

// plant writes data where key's entry lives, bypassing Put.
func plant(t testing.TB, s *Store, key Key, data []byte) {
	t.Helper()
	path := s.addr(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// gobStream is the payload Put seals for v.
func gobStream(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// badValue returns a value message of value's type whose first field delta
// points past the struct's last field, so it fails to decode.
func badValue(value []byte) []byte {
	_, w := gobUint(value)
	_, iw := gobUint(value[w:])
	body := append(append([]byte(nil), value[w:w+iw]...), 0x7f, 0x01)
	return append([]byte{byte(len(body))}, body...)
}

// TestPrimedDecoderRejectsMalformedStreams: a sealed entry that is not
// definitions followed by exactly one decodable value must miss, whether or
// not a decoder is primed with its definitions, and must not stop a valid
// entry with the same definitions from hitting afterwards.
func TestPrimedDecoderRejectsMalformedStreams(t *testing.T) {
	want := samplePayload()
	stream := gobStream(t, want)
	defs, value, ok := splitStream(stream)
	if !ok || len(defs) == 0 {
		t.Fatalf("splitStream(valid stream) = %d defs bytes, ok=%v", len(defs), ok)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"garbage value", append(append([]byte(nil), defs...), badValue(value)...)},
		{"trailing bytes", append(append([]byte(nil), stream...), 0x00)},
		{"two values", append(append([]byte(nil), stream...), value...)},
	}
	for _, c := range cases {
		for _, primed := range []bool{false, true} {
			s := mustOpen(t, t.TempDir(), "v1")
			good, bad := NewKey("good"), NewKey("bad")
			if err := s.Put(good, want); err != nil {
				t.Fatal(err)
			}
			if primed {
				var got payload
				if !s.Get(good, &got) {
					t.Fatal("valid entry missed")
				}
			}
			plant(t, s, bad, sealEnvelope(c.payload))
			var junk payload
			if s.Get(bad, &junk) {
				t.Fatalf("%s (primed=%v): sealed entry hit: %+v", c.name, primed, junk)
			}
			if primed && c.name == "garbage value" && s.decoders[string(defs)] != nil {
				t.Fatal("primed decoder kept after a failed decode")
			}
			var got payload
			if !s.Get(good, &got) {
				t.Fatalf("%s (primed=%v): valid entry missed afterwards", c.name, primed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (primed=%v): valid entry decoded as %+v, want %+v", c.name, primed, got, want)
			}
		}
	}
}

func TestClear(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v1")
	key := NewKey("cleared")
	if err := s.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Get(key, &got) {
		t.Fatal("entry survived Clear")
	}
	// Store stays usable after Clear.
	if err := s.Put(key, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if !s.Get(key, &got) {
		t.Fatal("store unusable after Clear")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", "v1"); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestKeyDerivation pins the anti-collision properties NewKey promises.
func TestKeyDerivation(t *testing.T) {
	if NewKey("ab", "c") == NewKey("a", "bc") {
		t.Fatal("concatenation collision")
	}
	if NewKey("a") == NewKey([]byte("a")) {
		t.Fatal("type tag ignored for string vs []byte")
	}
	if NewKey(uint64(1)) == NewKey(1) {
		t.Fatal("type tag ignored for uint64 vs int")
	}
	if NewKey(float64(1)) == NewKey(uint64(math.Float64bits(1))) {
		t.Fatal("type tag ignored for float64 vs uint64")
	}
	if NewKey(true) == NewKey(false) {
		t.Fatal("bools collide")
	}
	if NewKey("same", 1, 2.5) != NewKey("same", 1, 2.5) {
		t.Fatal("key derivation is not stable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unhashable part did not panic")
		}
	}()
	NewKey(struct{}{})
}
