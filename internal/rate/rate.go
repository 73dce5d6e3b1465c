// Package rate provides the two flow-control disciplines the transport can
// be profiled with: a token-bucket rate regulator implementing the
// rate-based flow control the paper assumes ([Cheriton,86], [Chesson,88],
// [Clark,88]; §7), and a credit window implementing the traditional
// window-based technique ([Postel,81]) kept as the comparison baseline.
//
// Rate-based control decouples flow control from error control and adapts
// instantly to SetRate — the property the LLO exploits to block a VC that
// runs ahead of its regulation target (§6.3.1.1).
//
// The bucket paces by schedule, not by wake-up. A sender in debt sleeps
// until its next unit is due, but timers fire late: the transport's shard
// wheel ticks every millisecond and the Go runtime rounds sub-millisecond
// sleeps up to about that. So credit that accrues while the sender is
// backlogged is never clipped to the burst: at 4,000 units/s a wake 1 ms
// late releases the four units that fell due meanwhile, much as Linux fq
// releases on time_next_packet. The burst cap limits only credit accrued
// while the sender is idle, and a separate carry bound caps what a
// backlogged sender may bank, so a stall (a GC pause, a descheduled
// shard) cannot flood the receiver in one wake.
package rate

import (
	"sync"
	"time"

	"cmtos/internal/clock"
)

// Bucket is a token-bucket pacer: tokens accrue at Rate per second;
// sending n units consumes n tokens; a sender that outruns the rate is
// told how long to wait. The unit is whatever the caller chooses (bytes
// for bandwidth pacing, OSDUs for frame pacing).
//
// Accrual stops at one of two caps and never removes credit already
// held. A sender is backlogged from the Take that first leaves it in
// debt until it calls Idle; meanwhile the balance accrues up to carry,
// so neither a late wake nor the time spent sending what fell due loses
// credit. Otherwise the sender is idle and accrual stops at burst. Bucket
// is safe for concurrent use.
type Bucket struct {
	clk clock.Clock

	mu         sync.Mutex
	rate       float64 // tokens per second
	burst      float64 // accrual cap while idle
	carry      float64 // accrual cap while backlogged
	tokens     float64
	last       time.Time
	backlogged bool
	paused     bool
}

// NewBucket returns a bucket that starts full (burst tokens). carry bounds
// the credit a backlogged sender may bank and must be at least burst.
func NewBucket(clk clock.Clock, ratePerSec, burst, carry float64) *Bucket {
	if ratePerSec <= 0 || burst <= 0 || carry < burst {
		panic("rate: rate and burst must be positive, carry at least burst")
	}
	return &Bucket{clk: clk, rate: ratePerSec, burst: burst, carry: carry, tokens: burst, last: clk.Now()}
}

// refill accrues tokens to now, up to the cap for the sender's state;
// caller holds mu.
func (b *Bucket) refill(now time.Time) {
	if b.paused {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	limit := b.burst
	if b.backlogged {
		limit = b.carry
	}
	if b.tokens < limit {
		b.tokens = min(b.tokens+dt*b.rate, limit)
	}
}

// Take consumes n tokens immediately (the bucket may go negative) and
// returns how long the caller must wait before the debt is repaid —
// zero when tokens were available. This "spend then wait" shape keeps the
// long-run rate exact even for bursts larger than the bucket. A debt
// marks the sender backlogged.
func (b *Bucket) Take(n float64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(b.clk.Now())
	b.tokens -= n
	if b.tokens >= 0 {
		return 0
	}
	b.backlogged = true
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// Idle tells the bucket the sender has run out of work to pace. Credit
// accrued so far is kept; from now on accrual stops at burst, until a
// Take leaves a debt again. A sender that stops for any reason other than
// a pacing wait must call it, or a long pause would bank carry-sized
// credit and release it as a burst.
func (b *Bucket) Idle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(b.clk.Now())
	b.backlogged = false
}

// Wait is Take followed by sleeping out the returned debt.
func (b *Bucket) Wait(n float64) {
	if d := b.Take(n); d > 0 {
		b.clk.Sleep(d)
	}
}

// SetRate changes the token accrual rate, first crediting tokens earned at
// the old rate. It is the hook used both by QoS re-negotiation and by the
// orchestration layer's fine-grained speed corrections.
func (b *Bucket) SetRate(ratePerSec float64) {
	if ratePerSec <= 0 {
		panic("rate: rate must be positive")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(b.clk.Now())
	b.rate = ratePerSec
}

// Rate returns the current token accrual rate.
func (b *Bucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// Pause stops token accrual; senders drain whatever credit remains and then
// stall. Used to freeze a VC (Orch.Stop) faster than a rate change could.
func (b *Bucket) Pause() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(b.clk.Now())
	b.paused = true
}

// Resume restarts token accrual from now.
func (b *Bucket) Resume() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.last = b.clk.Now()
	b.paused = false
}

// Paused reports whether accrual is paused.
func (b *Bucket) Paused() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.paused
}

// Tokens returns the current token balance (may be negative after a burst).
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(b.clk.Now())
	return b.tokens
}

// Window is the window-based baseline: a sender may have at most Size
// unacknowledged units outstanding; acknowledgements return credit. Unlike
// the bucket, transmission timing is entirely ack-clocked, which couples
// flow control to the error/ack machinery — the property the paper argues
// makes windows a poor fit for continuous media (§7). Window is safe for
// concurrent use.
type Window struct {
	mu     sync.Mutex
	cond   *sync.Cond
	size   int
	inUse  int
	closed bool
}

// NewWindow returns a window with the given size.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic("rate: window size must be positive")
	}
	w := &Window{size: size}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Acquire blocks until one unit of credit is available and consumes it.
// It returns false if the window was closed while waiting.
func (w *Window) Acquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inUse >= w.size && !w.closed {
		w.cond.Wait()
	}
	if w.closed {
		return false
	}
	w.inUse++
	return true
}

// TryAcquire consumes one unit of credit if available.
func (w *Window) TryAcquire() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.inUse >= w.size {
		return false
	}
	w.inUse++
	return true
}

// Release returns n units of credit (acknowledgement arrival).
func (w *Window) Release(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inUse -= n
	if w.inUse < 0 {
		w.inUse = 0
	}
	w.cond.Broadcast()
}

// SetSize changes the window size, waking senders if it grew.
func (w *Window) SetSize(size int) {
	if size <= 0 {
		panic("rate: window size must be positive")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.size = size
	w.cond.Broadcast()
}

// InUse returns the outstanding (unacknowledged) unit count.
func (w *Window) InUse() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inUse
}

// Close unblocks all waiters; subsequent Acquires fail.
func (w *Window) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.cond.Broadcast()
}
