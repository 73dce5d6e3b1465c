package rate

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cmtos/internal/clock"
)

func manualBucket(rate, burst float64) (*Bucket, *clock.Manual) {
	return manualCarryBucket(rate, burst, burst)
}

func manualCarryBucket(rate, burst, carry float64) (*Bucket, *clock.Manual) {
	m := clock.NewManual(time.Unix(0, 0))
	return NewBucket(m, rate, burst, carry), m
}

func TestBucketStartsFull(t *testing.T) {
	b, _ := manualBucket(100, 10)
	if d := b.Take(10); d != 0 {
		t.Fatalf("Take(10) from full bucket = %v, want 0", d)
	}
	if d := b.Take(1); d <= 0 {
		t.Fatalf("Take beyond burst = %v, want positive wait", d)
	}
}

func TestBucketDebtMatchesRate(t *testing.T) {
	b, _ := manualBucket(100, 10) // 100 tokens/s
	b.Take(10)                    // drain
	if d := b.Take(50); d != 500*time.Millisecond {
		t.Fatalf("debt wait = %v, want 500ms", d)
	}
}

func TestBucketRefills(t *testing.T) {
	b, m := manualBucket(100, 10)
	b.Take(10)
	m.Advance(50 * time.Millisecond) // +5 tokens
	if got := b.Tokens(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("tokens = %g, want 5", got)
	}
	m.Advance(time.Hour)
	if got := b.Tokens(); got != 10 {
		t.Fatalf("tokens = %g, want capped at burst 10", got)
	}
}

func TestBucketLongRunRateIsExact(t *testing.T) {
	b, m := manualBucket(1000, 10)
	var total float64
	var waited time.Duration
	for i := 0; i < 100; i++ {
		d := b.Take(25)
		total += 25
		if d > 0 {
			m.Advance(d)
			waited += d
		}
	}
	// 2500 tokens at 1000/s needs ~2.5s minus the initial burst of 10.
	elapsed := waited.Seconds()
	want := (total - 10) / 1000
	if math.Abs(elapsed-want) > 0.01 {
		t.Fatalf("elapsed %.3fs for %g tokens, want %.3fs", elapsed, total, want)
	}
}

func TestBucketSetRate(t *testing.T) {
	b, m := manualBucket(100, 10)
	b.Take(10)
	b.SetRate(1000)
	if d := b.Take(100); d != 100*time.Millisecond {
		t.Fatalf("wait after rate change = %v, want 100ms", d)
	}
	if b.Rate() != 1000 {
		t.Fatalf("Rate() = %g", b.Rate())
	}
	_ = m
}

func TestBucketSetRateCreditsOldRate(t *testing.T) {
	b, m := manualBucket(100, 1000)
	b.Take(1000) // drain
	m.Advance(time.Second)
	b.SetRate(1) // the second at 100/s must be credited first
	if got := b.Tokens(); math.Abs(got-100) > 1e-6 {
		t.Fatalf("tokens = %g, want 100 credited at old rate", got)
	}
}

func TestBucketPauseStopsAccrual(t *testing.T) {
	b, m := manualBucket(100, 10)
	b.Take(10)
	b.Pause()
	if !b.Paused() {
		t.Fatal("Paused() = false")
	}
	m.Advance(time.Second)
	if got := b.Tokens(); got != 0 {
		t.Fatalf("tokens accrued while paused: %g", got)
	}
	b.Resume()
	m.Advance(100 * time.Millisecond)
	if got := b.Tokens(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("tokens after resume = %g, want 10", got)
	}
}

func TestBucketWaitSleepsOutDebt(t *testing.T) {
	var sys clock.System
	b := NewBucket(sys, 1000, 1, 1)
	start := time.Now()
	b.Wait(1)  // free
	b.Wait(20) // ~20ms debt
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("Wait returned after %v, want >=10ms", elapsed)
	}
}

// lateSender drives b like the transport's pump for the given span of
// manual time: each unit costs work of manual time to send; on debt, the
// sender sleeps until the debt is due plus late. It returns the units
// released.
func lateSender(b *Bucket, m *clock.Manual, span, work, late time.Duration) int {
	end := m.Now().Add(span)
	sent := 0
	for m.Now().Before(end) {
		if d := b.Take(1); d > 0 {
			m.Advance(d + late)
		}
		m.Advance(work)
		sent++
	}
	return sent
}

// A 250 µs pacing period on a timer that always fires 1 ms late (the
// transport's wheel tick) must still hold the set rate: the credit that
// fell due during the late sleep is earned, not clipped to the burst.
// Time spent sending what fell due must not lose credit either.
func TestBucketLateWakesKeepRate(t *testing.T) {
	const r = 4000 // one unit per 250 µs
	for _, work := range []time.Duration{0, 100 * time.Microsecond} {
		b, m := manualCarryBucket(r, 2, 15)
		span := 10 * time.Second
		got := float64(lateSender(b, m, span, work, time.Millisecond)) / span.Seconds()
		if math.Abs(got-r)/r > 0.01 {
			t.Fatalf("work %v: long-run rate %.0f/s with 1 ms late wakes, want %d/s ±1%%", work, got, r)
		}
	}
}

// The burst cap still bounds credit accrued while idle.
func TestBucketIdleReleasesAtMostBurst(t *testing.T) {
	b, m := manualCarryBucket(4000, 2, 15)
	b.Take(2) // drain without going into debt
	m.Advance(time.Second)
	if n := freeTakes(b); n != 2 {
		t.Fatalf("first wake after idle released %d units, want burst 2", n)
	}

	// A sender that wakes from its debt to an empty queue keeps what it
	// earned during the late sleep, but the idle spell after it adds
	// nothing.
	b, m = manualCarryBucket(4000, 2, 15)
	b.Take(3)                                          // one unit of debt, due in 250 µs
	m.Advance(250*time.Microsecond + time.Millisecond) // 4 units earned past the debt
	b.Idle()
	m.Advance(time.Second)
	if n := freeTakes(b); n != 4 {
		t.Fatalf("after a late wake and an idle second, released %d units, want the 4 earned", n)
	}
}

// One wake, however late (a GC pause, a descheduled shard), never
// releases more than the carry bound.
func TestBucketLateWakeBoundedByCarry(t *testing.T) {
	b, m := manualCarryBucket(4000, 2, 15)
	if d := b.Take(3); d <= 0 {
		t.Fatal("no debt taken")
	}
	m.Advance(time.Hour)
	if n := freeTakes(b); n != 15 {
		t.Fatalf("a stalled wake released %d units, want carry 15", n)
	}
}

// Earned credit above the burst is never clipped by idle refills.
func TestBucketEarnedCreditNotClipped(t *testing.T) {
	b, m := manualCarryBucket(1000, 1, 10)
	b.Take(2) // one unit of debt
	m.Advance(6 * time.Millisecond)
	b.Idle()
	m.Advance(time.Second)
	if got := b.Tokens(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("tokens = %g, want the 5 earned kept", got)
	}
}

// freeTakes counts the units b releases without a wait.
func freeTakes(b *Bucket) int {
	n := 0
	for b.Take(1) == 0 {
		n++
	}
	return n
}

func TestBucketPanicsOnBadArguments(t *testing.T) {
	var sys clock.System
	for _, f := range []func(){
		func() { NewBucket(sys, 0, 1, 1) },
		func() { NewBucket(sys, 1, 0, 1) },
		func() { NewBucket(sys, 1, 2, 1) }, // carry below burst
		func() { b := NewBucket(sys, 1, 1, 1); b.SetRate(0) },
		func() { NewWindow(0) },
		func() { w := NewWindow(1); w.SetSize(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: the wait returned by Take is never negative and is exactly
// debt/rate.
func TestQuickBucketWait(t *testing.T) {
	f := func(takes []uint16) bool {
		b, m := manualBucket(500, 50)
		for _, n := range takes {
			d := b.Take(float64(n % 200))
			if d < 0 {
				return false
			}
			m.Advance(d) // pay off the debt
		}
		// After paying all debts the balance is never below zero by
		// more than float tolerance.
		return b.Tokens() > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowAcquireRelease(t *testing.T) {
	w := NewWindow(2)
	if !w.TryAcquire() || !w.TryAcquire() {
		t.Fatal("could not fill window")
	}
	if w.TryAcquire() {
		t.Fatal("TryAcquire beyond window size")
	}
	if w.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", w.InUse())
	}
	w.Release(1)
	if !w.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestWindowAcquireBlocksUntilRelease(t *testing.T) {
	w := NewWindow(1)
	w.Acquire()
	acquired := make(chan bool, 1)
	go func() { acquired <- w.Acquire() }()
	select {
	case <-acquired:
		t.Fatal("Acquire returned with no credit")
	case <-time.After(10 * time.Millisecond):
	}
	w.Release(1)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("Acquire returned false after Release")
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire never woke after Release")
	}
}

func TestWindowGrowWakesWaiters(t *testing.T) {
	w := NewWindow(1)
	w.Acquire()
	acquired := make(chan bool, 1)
	go func() { acquired <- w.Acquire() }()
	time.Sleep(5 * time.Millisecond)
	w.SetSize(2)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("Acquire returned false after grow")
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire never woke after SetSize grow")
	}
}

func TestWindowCloseUnblocks(t *testing.T) {
	w := NewWindow(1)
	w.Acquire()
	acquired := make(chan bool, 1)
	go func() { acquired <- w.Acquire() }()
	time.Sleep(5 * time.Millisecond)
	w.Close()
	select {
	case ok := <-acquired:
		if ok {
			t.Fatal("Acquire succeeded on closed window")
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire never woke after Close")
	}
	if w.Acquire() {
		t.Fatal("Acquire on closed window succeeded")
	}
	if w.TryAcquire() {
		t.Fatal("TryAcquire on closed window succeeded")
	}
}

func TestWindowReleaseClampsAtZero(t *testing.T) {
	w := NewWindow(4)
	w.Acquire()
	w.Release(10)
	if w.InUse() != 0 {
		t.Fatalf("InUse = %d, want clamped 0", w.InUse())
	}
}

func TestWindowConcurrentAccounting(t *testing.T) {
	w := NewWindow(4)
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.Acquire() {
				w.Release(1)
			}
		}()
	}
	wg.Wait()
	if w.InUse() != 0 {
		t.Fatalf("InUse = %d after balanced acquire/release", w.InUse())
	}
}
