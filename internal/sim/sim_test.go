package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
	if s := Time(1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String() = %q", s)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("Run returned %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of scheduling order: %v", order[:10])
	}
}

func TestEngineAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(2*Second, func() { at = e.Now() })
	e.Run()
	if at != 2*Second {
		t.Fatalf("event at %v, want 2s", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(Millisecond, tick)
		}
	}
	e.After(0, tick)
	end := e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if end != 9*Millisecond {
		t.Fatalf("end = %v, want 9ms", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	// Remaining events still run afterwards.
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run, want all 4", fired)
	}
}

// RunUntil(MaxTime) can never pass its deadline, so only a drained queue
// ends it; it must return both when the queue starts empty and once the
// events it runs stop scheduling more.
func TestRunUntilMaxTimeReturns(t *testing.T) {
	e := NewEngine()
	if got := e.RunUntil(MaxTime); got != MaxTime {
		t.Fatalf("empty queue: RunUntil(MaxTime) = %v, want MaxTime", got)
	}
	e = NewEngine()
	n := 0
	e.At(10, func() { n++; e.After(5, func() { n++ }) })
	if got := e.RunUntil(MaxTime); got != MaxTime || n != 2 {
		t.Fatalf("RunUntil(MaxTime) = %v after %d events, want MaxTime after 2", got, n)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(Second)
	if e.Now() != Second {
		t.Fatalf("Now = %v, want 1s", e.Now())
	}
	e.RunFor(Second)
	if e.Now() != 2*Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
}

func TestStopAbortsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should abort)", count)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// A steady-state self-rescheduling chain must recycle its event through the
// pool instead of allocating a fresh one per firing.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n%100 != 0 {
			e.After(10, tick)
		}
	}
	// Each run schedules one root event that chains through 100 firings,
	// all recycling the same pooled Event.
	run := func() {
		e.After(10, tick)
		e.Run()
	}
	run() // seed the free list
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Fatalf("self-rescheduling chain allocated %.1f objects/run, want 0", avg)
	}
	if n%100 != 0 || n == 0 {
		t.Fatalf("chain misfired: n = %d", n)
	}
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the clock never moves backwards.
func TestEventOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 1_000_000)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	a := parent.Split(1)
	b := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(9)
	const n = 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(13)
	if r.Jitter(0) != 0 {
		t.Fatal("Jitter(0) must be 0")
	}
	for i := 0; i < 1000; i++ {
		j := r.Jitter(Millisecond)
		if j < 0 || j >= Millisecond {
			t.Fatalf("jitter out of range: %d", j)
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j), func() {})
		}
		e.Run()
	}
}
