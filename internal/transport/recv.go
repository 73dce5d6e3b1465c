package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/rate"
	"cmtos/internal/stats"
	"cmtos/internal/timerwheel"
)

// maxReports bounds the retained per-VC QoS report history; the oldest
// reports are discarded first. Long-lived VCs used to grow this slice by
// one entry per sample period forever.
const maxReports = 4096

// RecvVC is the sink side of a simplex virtual circuit: it reassembles
// OSDUs from data TPDUs (preserving boundaries, §3.7), applies the class
// of service's error control (§3.4), measures QoS per sample period and
// raises T-QoS.indication (Table 2), matches registered event patterns in
// the OPDU fields (§6.3.4), and hands OSDUs to the application through
// the shared circular buffer whose delivery gate and pacing the low-level
// orchestrator controls.
type RecvVC struct {
	e       *Entity
	sh      *shard
	id      core.VCID
	tuple   core.ConnectTuple
	profile qos.Profile
	class   qos.Class

	ring *cbuf.Ring
	mon  *qos.Monitor

	mu       sync.Mutex
	contract qos.Contract
	closed   bool

	// Delivery regulation (set by the LLO).
	pacer atomic.Pointer[rate.Bucket]

	// Event matching.
	evMu     sync.Mutex
	patterns map[core.EventPattern]bool
	eventFn  func(core.OSDUSeq, core.EventPattern)

	// Protocol receive state; touched only on the host delivery
	// goroutine plus the periodic ack loop, hence its own lock.
	rxMu        sync.Mutex
	stalledAt   time.Time     // when the protocol last failed to deliver (zero: not stalled)
	stalled     time.Duration // accumulated protocol stall (ring full) time
	asm         map[core.OSDUSeq]*partial
	pendingOut  map[core.OSDUSeq]cbuf.OSDU // complete, awaiting in-order delivery
	nextDeliver core.OSDUSeq               // next OSDU seq owed to the ring
	tap         func(cbuf.OSDU) bool       // delivery tap; replaces the ring when set
	expected    uint64                     // next in-order TPDU seq
	maxSeen     uint64                     // highest TPDU seq seen
	missing     map[uint64]time.Time       // TPDU gaps (correcting classes)
	inOrderRun  int                        // TPDUs since last ack
	xoff        bool
	expectAdopt bool // resumed VC: adopt the first TPDU seq seen as the baseline

	// Resume identity (set by initResume): the watermark this incarnation
	// was built on and the handshake token that built it, for idempotent
	// re-confirmation of a retransmitted ResumeReq.
	resumeBase core.OSDUSeq
	resumeTok  uint32

	delivered    atomic.Uint64 // OSDUs handed to the application
	deliveredSeq atomic.Uint64 // sequence number just past the last delivered OSDU
	lastEvent    atomic.Uint64 // most recent matched event value

	// lateBound caches contract.Delay+contract.Jitter in nanoseconds so
	// the receive path can classify late OSDUs without taking mu; 0
	// means no bound. Updated on re-negotiation.
	lateBound atomic.Int64

	si recvInstr

	reports struct {
		sync.Mutex
		last qos.Report
		all  []qos.Report
	}

	// Shard timers (shard-confined): the QoS sample tick always repeats;
	// the ack sweep repeats only for acknowledging classes; the flow
	// probe is armed only while backpressure is engaged or the reorder
	// stage holds OSDUs, so an idle VC costs the wheel nothing.
	sampleTimer timerwheel.Timer
	ackTimer    timerwheel.Timer
	flowTimer   timerwheel.Timer

	// flowArmQ coalesces cross-thread flow-timer arm requests (from
	// Read/TryRead/FlushBuffered via maybeXon) into at most one queued
	// evArmFlow.
	flowArmQ atomic.Bool

	closeOnce sync.Once
	done      chan struct{}
}

// recvInstr holds the VC's registry instruments; all nil when metrics
// are disabled.
type recvInstr struct {
	delivered  *stats.Counter
	lost       *stats.Counter
	late       *stats.Counter
	bitErrors  *stats.Counter
	violations *stats.Counter
	protoStall *stats.Histogram
	qosThr     *stats.Gauge
	qosDelay   *stats.Gauge
	qosJitter  *stats.Gauge
	qosPER     *stats.Gauge
	qosBER     *stats.Gauge
}

// partial is an OSDU under reassembly.
type partial struct {
	size    int
	got     int
	have    []bool
	buf     []byte
	event   core.EventPattern
	sentAt  time.Time
	started time.Time
}

func newRecvVC(e *Entity, id core.VCID, tup core.ConnectTuple, profile qos.Profile, class qos.Class, contract qos.Contract) *RecvVC {
	r := &RecvVC{
		e:          e,
		sh:         e.shardFor(id),
		id:         id,
		tuple:      tup,
		profile:    profile,
		class:      class,
		ring:       cbuf.New(e.clk, e.cfg.RingSlots, contract.MaxOSDUSize),
		mon:        qos.NewMonitor(),
		contract:   contract,
		patterns:   make(map[core.EventPattern]bool),
		asm:        make(map[core.OSDUSeq]*partial),
		pendingOut: make(map[core.OSDUSeq]cbuf.OSDU),
		missing:    make(map[uint64]time.Time),
		expected:   1, // TPDU sequence numbers start at 1
		done:       make(chan struct{}),
	}
	r.setLateBound(contract)
	sc := e.scope.Scope(vcScopeName(id)).Scope("recv")
	qc := sc.Scope("qos")
	r.si = recvInstr{
		delivered:  sc.Counter("osdus_delivered"),
		lost:       sc.Counter("osdus_lost"),
		late:       sc.Counter("osdus_late"),
		bitErrors:  sc.Counter("bit_errors"),
		violations: sc.Counter("qos_violations"),
		protoStall: sc.Histogram("block_proto_seconds", stats.DurationBuckets()),
		qosThr:     qc.Gauge("throughput"),
		qosDelay:   qc.Gauge("mean_delay_seconds"),
		qosJitter:  qc.Gauge("jitter_seconds"),
		qosPER:     qc.Gauge("per"),
		qosBER:     qc.Gauge("ber"),
	}
	// The consumer side of the sink ring is the application; producer
	// blocking never happens (the protocol uses TryPut and parks
	// overflow in the reorder stage, timed via protoStall instead).
	r.ring.SetBlockStats(nil, sc.Histogram("block_app_seconds", stats.DurationBuckets()))
	return r
}

// initResume configures a successor RecvVC to continue the failed
// incarnation's stream: OSDU delivery picks up exactly at the sealed
// watermark, DeliveredSeq reflects everything the old incarnation handed
// over, and the TPDU tracker adopts the sender's continued numbering from
// the first TPDU it sees instead of expecting a restart at 1. Must run
// before start().
func (r *RecvVC) initResume(base core.OSDUSeq, tok uint32) {
	r.resumeBase = base
	r.resumeTok = tok
	r.nextDeliver = base
	r.expectAdopt = true
	r.deliveredSeq.Store(uint64(base))
}

// SetDeliveryTap replaces ring delivery with a direct handoff: every
// in-order OSDU is passed to fn instead of being queued for Read. The tap
// is the re-publication hook for relay splices (one ingest VC fanned out
// onto N egress VCs): the OSDU's payload is freshly allocated per OSDU, so
// fn may retain it without copying. fn runs on the VC's owning shard (or,
// transiently, an application thread) and must not block; returning false
// keeps the OSDU in the reorder stage, engages source backpressure, and
// retries every RTO until fn accepts it. A tapped VC must not be Read
// concurrently — the ring is bypassed entirely, and DeliveredSeq advances
// as the tap accepts.
//
// Installing a tap drains anything already buffered in the ring through fn
// first (a resumed ingest may have delivered a few OSDUs before the tap
// owner reattached); those drained OSDUs are handed over unconditionally,
// since the ring has already committed them in order.
func (r *RecvVC) SetDeliveryTap(fn func(cbuf.OSDU) bool) {
	r.rxMu.Lock()
	r.tap = fn
	if fn != nil {
		for {
			u, ok, err := r.ring.TryGet()
			if !ok || err != nil {
				break
			}
			fn(u)
			r.delivered.Add(1)
			r.si.delivered.Inc()
			if next := uint64(u.Seq) + 1; next > r.deliveredSeq.Load() {
				r.deliveredSeq.Store(next)
			}
		}
		r.flushInOrderLocked()
	}
	need := r.xoff || len(r.pendingOut) != 0
	r.rxMu.Unlock()
	if need {
		r.requestFlowArm()
	}
}

// Nudge retries delivery of anything parked in the reorder stage and lifts
// backpressure when possible. Tap consumers call it when downstream
// capacity frees up, instead of waiting for the next RTO flow probe.
func (r *RecvVC) Nudge() { r.maybeXon() }

// Profile returns the VC's protocol profile.
func (r *RecvVC) Profile() qos.Profile { return r.profile }

// initStart configures a fresh RecvVC to begin in-order delivery at base
// instead of 0 — a mid-stream join, where a relay publishes from its
// current splice head onto a newly connected leaf. TPDU numbering is NOT
// adopted: the sender is a brand-new VC whose TPDUs start at 1. Must run
// before start().
func (r *RecvVC) initStart(base core.OSDUSeq) {
	r.nextDeliver = base
	r.deliveredSeq.Store(uint64(base))
}

// setLateBound refreshes the cached delay+jitter bound used to count
// late OSDUs.
func (r *RecvVC) setLateBound(c qos.Contract) {
	r.lateBound.Store(int64(c.Delay + c.Jitter))
}

// start hands the VC to its owning shard, which arms the periodic work:
// QoS sampling and, for acknowledging classes, the ack/sweep tick.
func (r *RecvVC) start() {
	r.sh.post(shardEvent{kind: evRegRecv, recv: r})
}

// startOnShard arms the VC's periodic timers; shard context.
func (r *RecvVC) startOnShard() {
	r.sh.schedule(&r.sampleTimer, r.e.cfg.SamplePeriod, r.sampleTick)
	if r.acks() {
		r.sh.schedule(&r.ackTimer, r.e.cfg.RTO, r.ackTick)
	}
	r.armFlowIfNeeded()
}

// armFlowIfNeeded arms the flow probe when there is flow-control work to
// supervise — backpressure engaged or OSDUs parked in the reorder stage —
// and leaves the wheel untouched otherwise. Shard context.
func (r *RecvVC) armFlowIfNeeded() {
	if r.flowTimer.Armed() {
		return
	}
	r.rxMu.Lock()
	need := r.xoff || len(r.pendingOut) != 0
	r.rxMu.Unlock()
	if need {
		r.sh.schedule(&r.flowTimer, r.e.cfg.RTO, r.flowTick)
	}
}

// requestFlowArm is the cross-thread edge of armFlowIfNeeded, for
// application threads (Read, TryRead, FlushBuffered) that just changed
// ring occupancy.
func (r *RecvVC) requestFlowArm() {
	if r.flowArmQ.CompareAndSwap(false, true) {
		r.sh.post(shardEvent{kind: evArmFlow, recv: r})
	}
}

// flowTick maintains the XOFF lease: while backpressure is wanted it is
// refreshed every RTO (the source's lease outlives two refresh losses),
// and a lost XON is repaired on the next tick. It re-arms itself only
// while there is still work to supervise.
func (r *RecvVC) flowTick() {
	r.rxMu.Lock()
	r.flushInOrderLocked()
	if r.xoff {
		if r.xonReadyLocked() {
			r.xoff = false
			r.endStallLocked()
			r.e.sendCtl(r.tuple.Source.Host, &pdu.Control{Kind: pdu.KindFlowOn, VC: r.id})
		} else {
			r.e.sendCtl(r.tuple.Source.Host, &pdu.Control{Kind: pdu.KindFlowOff, VC: r.id})
		}
	}
	need := r.xoff || len(r.pendingOut) != 0
	r.rxMu.Unlock()
	if need {
		r.sh.schedule(&r.flowTimer, r.e.cfg.RTO, r.flowTick)
	}
}

// acks reports whether this VC generates acknowledgements.
func (r *RecvVC) acks() bool {
	return r.class.Corrects() || r.profile == qos.ProfileWindow
}

// ID returns the VC identifier.
func (r *RecvVC) ID() core.VCID { return r.id }

// Tuple returns the VC's connect addresses.
func (r *RecvVC) Tuple() core.ConnectTuple { return r.tuple }

// Class returns the VC's class of service.
func (r *RecvVC) Class() qos.Class { return r.class }

// Contract returns the currently agreed QoS contract.
func (r *RecvVC) Contract() qos.Contract {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.contract
}

// Read removes the next OSDU in sequence order, blocking while the buffer
// is empty, the delivery gate is held (primed), or the orchestrator's
// delivery pacer withholds credit. The returned payload aliases buffer
// storage and is valid until the next Read. Read is intended for a
// single application thread per VC.
func (r *RecvVC) Read() (cbuf.OSDU, error) {
	u, ok, err := r.ring.TryGet()
	if !ok && err == nil {
		if b := r.pacer.Load(); b != nil {
			b.Idle() // waiting for data, not for the pacer
		}
		u, err = r.ring.Get()
	}
	if err != nil {
		return cbuf.OSDU{}, err
	}
	if b := r.pacer.Load(); b != nil {
		b.Wait(1)
	}
	r.delivered.Add(1)
	r.si.delivered.Inc()
	r.deliveredSeq.Store(uint64(u.Seq) + 1)
	r.maybeXon()
	return u, nil
}

// TryRead is Read without blocking.
func (r *RecvVC) TryRead() (cbuf.OSDU, bool, error) {
	u, ok, err := r.ring.TryGet()
	b := r.pacer.Load()
	if !ok && b != nil {
		b.Idle()
	}
	if ok {
		if b != nil {
			b.Wait(1)
		}
		r.delivered.Add(1)
		r.si.delivered.Inc()
		r.deliveredSeq.Store(uint64(u.Seq) + 1)
		r.maybeXon()
	}
	return u, ok, err
}

// Delivered returns the count of OSDUs handed to the application.
func (r *RecvVC) Delivered() uint64 { return r.delivered.Load() }

// DeliveredSeq returns the OSDU sequence number one past the last OSDU
// handed to the application — the "OSDU# actually delivered" of
// Orch.Regulate.indication (Table 6).
func (r *RecvVC) DeliveredSeq() core.OSDUSeq { return core.OSDUSeq(r.deliveredSeq.Load()) }

// Buffered returns the number of OSDUs queued for the application.
func (r *RecvVC) Buffered() int { return r.ring.Len() }

// BufferCap returns the sink buffer's OSDU capacity.
func (r *RecvVC) BufferCap() int { return r.ring.Cap() }

// BufferFull reports whether the sink buffer is full — the LLO's "primed"
// condition (§6.2.1).
func (r *RecvVC) BufferFull() bool { return r.ring.Full() }

// WaitBufferFull blocks until the sink buffer is full, the VC ends, or
// cancel fires, and reports whether the buffer is full. It is
// notification-driven (no polling): the ring signals the waiter when the
// last free slot is occupied.
func (r *RecvVC) WaitBufferFull(cancel <-chan time.Time) bool {
	ch := make(chan struct{}, 1)
	r.ring.NotifyFull(ch)
	defer r.ring.StopNotifyFull(ch)
	for {
		if r.ring.Full() {
			return true
		}
		select {
		case <-ch:
			// Re-check: the signal is a level trigger and also fires on
			// close.
			if r.ring.Closed() {
				return r.ring.Full()
			}
		case <-r.done:
			return r.ring.Full()
		case <-cancel:
			return r.ring.Full()
		}
	}
}

// HoldDelivery closes the delivery gate so arriving OSDUs accumulate
// without reaching the application (Orch.Prime / Orch.Stop at the sink).
func (r *RecvVC) HoldDelivery() { r.ring.HoldDelivery() }

// ReleaseDelivery opens the delivery gate (Orch.Start).
func (r *RecvVC) ReleaseDelivery() { r.ring.ReleaseDelivery() }

// DeliveryHeld reports whether the delivery gate is closed.
func (r *RecvVC) DeliveryHeld() bool { return r.ring.Gated() }

// FlushBuffered discards every undelivered OSDU (stop-then-seek cleanup,
// §6.2.1) and returns how many were discarded.
func (r *RecvVC) FlushBuffered() int {
	n := r.ring.Flush()
	r.maybeXon()
	return n
}

// SetDeliveryRate installs (or, at rate 0, removes) an OSDU-per-second
// pacer on delivery to the application — the sink LLO's mechanism for
// releasing quanta "at times determined by the HLO initiated targets"
// (§5, Fig. 6).
func (r *RecvVC) SetDeliveryRate(osduPerSec float64) {
	if osduPerSec <= 0 {
		r.pacer.Store(nil)
		return
	}
	if b := r.pacer.Load(); b != nil {
		b.SetRate(osduPerSec)
		return
	}
	r.pacer.Store(rate.NewBucket(r.e.clk, osduPerSec, 1, max(float64(r.ring.Cap()-1), 1)))
}

// TakeBlockStats returns and resets the sink-side blocking times: how
// long the protocol thread was unable to deliver into a full buffer and
// how long the application thread blocked on an empty (or gated) one (§6.3.1.2).
func (r *RecvVC) TakeBlockStats() (app, proto time.Duration) {
	st := r.ring.TakeStats()
	r.rxMu.Lock()
	proto = r.stalled + st.ProducerBlocked
	r.stalled = 0
	if !r.stalledAt.IsZero() {
		// Still stalled: charge the open stall to this period.
		now := r.e.clk.Now()
		proto += now.Sub(r.stalledAt)
		r.stalledAt = now
	}
	r.rxMu.Unlock()
	return st.ConsumerBlocked, proto
}

// RegisterEvent adds an event pattern to match against arriving OSDUs'
// OPDU event fields (Orch.Event.request, §6.3.4).
func (r *RecvVC) RegisterEvent(p core.EventPattern) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.patterns[p] = true
}

// UnregisterEvent removes a registered pattern.
func (r *RecvVC) UnregisterEvent(p core.EventPattern) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	delete(r.patterns, p)
}

// SetEventHandler installs the callback raised when a registered pattern
// matches (Orch.Event.indication). The handler runs on the receive path
// and must be brief.
func (r *RecvVC) SetEventHandler(fn func(core.OSDUSeq, core.EventPattern)) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.eventFn = fn
}

// LastReport returns the most recent sample-period QoS report.
func (r *RecvVC) LastReport() qos.Report {
	r.reports.Lock()
	defer r.reports.Unlock()
	return r.reports.last
}

// Reports returns all sample-period reports gathered so far.
func (r *RecvVC) Reports() []qos.Report {
	r.reports.Lock()
	defer r.reports.Unlock()
	out := make([]qos.Report, len(r.reports.all))
	copy(out, r.reports.all)
	return out
}

// onDamaged handles a TPDU that failed its checksum (or arrived marked
// damaged by the network): every class detects; the error surfaces as a
// bit-error count and, for correcting classes, the TPDU-gap machinery
// recovers the data.
func (r *RecvVC) onDamaged() {
	r.mon.BitErrors(1)
	r.si.bitErrors.Inc()
}

// countLost records n OSDUs as lost with both the QoS monitor and the
// registry counter.
func (r *RecvVC) countLost(n int) {
	r.mon.Lost(n)
	r.si.lost.Add(uint64(n))
}

// onData is the receive path for one data TPDU. It runs on the host's
// delivery goroutine and never blocks.
func (r *RecvVC) onData(d *pdu.Data) {
	r.rxMu.Lock()
	r.trackTPDU(d.Seq)

	p := r.asm[d.OSDU]
	if p == nil {
		if d.OSDU < r.nextDeliver {
			// Duplicate of an OSDU already delivered or declared dead.
			r.rxMu.Unlock()
			return
		}
		p = &partial{
			size:    int(d.OSDUSize),
			have:    make([]bool, d.FragCount),
			buf:     make([]byte, d.OSDUSize),
			event:   d.Event,
			sentAt:  d.SentAt,
			started: r.e.clk.Now(),
		}
		r.asm[d.OSDU] = p
	}
	if int(d.Frag) < len(p.have) && !p.have[d.Frag] {
		p.have[d.Frag] = true
		p.got++
		copy(p.buf[int(d.Frag)*r.e.cfg.MaxTPDU:], d.Payload)
	}
	if p.got == len(p.have) {
		delete(r.asm, d.OSDU)
		r.pendingOut[d.OSDU] = cbuf.OSDU{Seq: d.OSDU, Event: p.event, Payload: p.buf[:p.size]}
		delay := r.e.clk.Since(p.sentAt)
		r.mon.Delivered(p.size, delay)
		if bound := r.lateBound.Load(); bound > 0 && delay > time.Duration(bound) {
			r.si.late.Inc()
		}
	}
	if !r.class.Corrects() {
		// Without retransmission an OSDU older than a completed one can
		// never finish: discard stale partials so delivery advances.
		for seq := range r.asm {
			if seq < d.OSDU {
				delete(r.asm, seq)
			}
		}
	}
	r.flushInOrderLocked()
	need := r.xoff || len(r.pendingOut) != 0
	r.rxMu.Unlock()
	// Arm the flow probe from the receive path too: a tapped VC has no
	// application Read to nudge the reorder stage, so without this a
	// downstream-full stall would never be retried. Shard context.
	if need {
		r.armFlowIfNeeded()
	}
}

// trackTPDU advances the in-order TPDU tracking and, for acknowledging
// classes, maintains the missing set and triggers acks. Caller holds rxMu.
func (r *RecvVC) trackTPDU(seq uint64) {
	if r.expectAdopt {
		// Resumed VC: the sender continued the old incarnation's TPDU
		// numbering, so the first TPDU seen sets the in-order baseline.
		r.expected = seq
		if seq > 0 {
			r.maxSeen = seq - 1
		}
		r.expectAdopt = false
	}
	newGap := false
	switch {
	case seq == r.expected:
		r.expected++
		// A retransmission may have already filled later gaps; advance
		// past anything no longer missing.
		for len(r.missing) == 0 && r.expected <= r.maxSeen {
			r.expected++
		}
	case seq > r.expected:
		if r.acks() {
			now := r.e.clk.Now()
			for s := r.expected; s < seq; s++ {
				if _, dup := r.missing[s]; !dup {
					r.missing[s] = now
					newGap = true
				}
			}
		}
		r.expected = seq + 1
	default: // retransmission filling a gap
		delete(r.missing, seq)
	}
	if seq > r.maxSeen {
		r.maxSeen = seq
	}
	if r.acks() {
		r.inOrderRun++
		if r.inOrderRun >= r.e.cfg.AckEvery || (newGap && r.class.Corrects()) {
			r.sendAckLocked()
		}
	}
}

// sendAckLocked emits a cumulative + selective acknowledgement. Caller
// holds rxMu.
func (r *RecvVC) sendAckLocked() {
	r.inOrderRun = 0
	a := &pdu.Ack{VC: r.id, CumSeq: r.maxSeen + 1, Window: uint32(r.e.cfg.WindowSize)}
	if r.class.Corrects() {
		for s := range r.missing {
			a.Naks = append(a.Naks, s)
			if len(a.Naks) >= 32 {
				break
			}
		}
	}
	_ = r.e.net.Send(netif.Packet{
		Src: r.tuple.Dest.Host, Dst: r.tuple.Source.Host,
		Flow: r.id, Prio: netif.PrioControl, Payload: a.Marshal(nil),
	})
}

// flushInOrderLocked moves complete OSDUs into the ring in sequence
// order, skipping sequence numbers declared dead and pausing while the
// ring is full (the pendingOut map is the elastic reorder stage; Read
// nudges it as slots free). Caller holds rxMu.
func (r *RecvVC) flushInOrderLocked() {
	for {
		u, ok := r.pendingOut[r.nextDeliver]
		if !ok {
			if r.class.Corrects() {
				// Wait for retransmission; the sweep declares death.
				return
			}
			// Non-correcting: if newer OSDUs are complete, the head is
			// gone for good — account it lost and skip forward.
			next, okNext := r.oldestPendingLocked()
			if !okNext {
				return
			}
			lost := int(next - r.nextDeliver)
			r.countLost(lost)
			r.nextDeliver = next
			continue
		}
		if !r.deliverLocked(u) {
			if r.stalledAt.IsZero() {
				r.stalledAt = r.e.clk.Now()
			}
			r.overflowLocked()
			return
		}
		if !r.xoff {
			r.endStallLocked()
		}
		delete(r.pendingOut, r.nextDeliver)
		r.nextDeliver++
	}
}

// overflowLocked bounds the reorder stage: beyond 4x the ring capacity
// the oldest pending OSDUs are discarded and counted lost. Caller holds
// rxMu.
func (r *RecvVC) overflowLocked() {
	limit := 4 * r.ring.Cap()
	for len(r.pendingOut) > limit {
		seq, ok := r.oldestPendingLocked()
		if !ok {
			return
		}
		delete(r.pendingOut, seq)
		r.countLost(1)
		if seq >= r.nextDeliver {
			r.nextDeliver = seq + 1
		}
	}
}

// oldestPendingLocked returns the lowest completed-but-undelivered OSDU
// sequence. Caller holds rxMu.
func (r *RecvVC) oldestPendingLocked() (core.OSDUSeq, bool) {
	var best core.OSDUSeq
	found := false
	for s := range r.pendingOut {
		if !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

// deliverLocked matches events and places one OSDU into the shared
// buffer (or hands it to the delivery tap), reporting whether it was
// accepted; callers keep OSDUs that were not in the reorder stage. Caller
// holds rxMu.
func (r *RecvVC) deliverLocked(u cbuf.OSDU) bool {
	if r.tap != nil {
		if !r.tap(u) {
			// Downstream full: backpressure the source and keep the OSDU;
			// the flow probe retries every RTO.
			r.sendXoffLocked()
			return false
		}
		r.matchEventLocked(u)
		r.delivered.Add(1)
		r.si.delivered.Inc()
		if next := uint64(u.Seq) + 1; next > r.deliveredSeq.Load() {
			r.deliveredSeq.Store(next)
		}
		return true
	}
	ok, err := r.ring.TryPut(u)
	if err != nil {
		return true // closed: discard silently, the VC is going away
	}
	if !ok {
		// Full: make sure the source is backpressured and keep the OSDU.
		r.sendXoffLocked()
		return false
	}
	r.matchEventLocked(u)
	// Backpressure early: leave headroom for TPDUs already in flight.
	if free := r.ring.Free(); free <= r.xoffThreshold() {
		r.sendXoffLocked()
	}
	return true
}

// matchEventLocked raises Orch.Event.indication for a delivered OSDU whose
// event field matches a registered pattern. Caller holds rxMu.
func (r *RecvVC) matchEventLocked(u cbuf.OSDU) {
	if u.Event == 0 {
		return
	}
	r.evMu.Lock()
	fn := r.eventFn
	hit := r.patterns[u.Event]
	r.evMu.Unlock()
	if hit {
		r.lastEvent.Store(uint64(u.Event))
		if fn != nil {
			fn(u.Seq, u.Event)
		}
	}
}

// xoffThreshold is the free-slot level at which backpressure engages.
// While the delivery gate is held (priming), the buffer must fill
// completely before the source is blocked — that is the whole point of
// Orch.Prime (§6.2.1) — so the threshold drops to zero.
func (r *RecvVC) xoffThreshold() int {
	if r.ring.Gated() {
		return 0
	}
	th := r.ring.Cap() / 4
	if th < 2 {
		th = 2
	}
	return th
}

// sendXoffLocked engages source backpressure once. XOFF time counts as
// protocol stall: while engaged, the sink protocol thread is logically
// blocked on a full buffer, even though the implementation parks the
// backpressure at the source instead of blocking a goroutine. Caller
// holds rxMu.
func (r *RecvVC) sendXoffLocked() {
	if r.xoff {
		return
	}
	r.xoff = true
	if r.stalledAt.IsZero() {
		r.stalledAt = r.e.clk.Now()
	}
	r.e.sendCtl(r.tuple.Source.Host, &pdu.Control{Kind: pdu.KindFlowOff, VC: r.id})
}

// endStallLocked closes an open stall period. Caller holds rxMu.
func (r *RecvVC) endStallLocked() {
	if !r.stalledAt.IsZero() {
		d := r.e.clk.Since(r.stalledAt)
		r.stalled += d
		r.si.protoStall.Observe(d.Seconds())
		r.stalledAt = time.Time{}
	}
}

// maybeXon flushes any OSDUs parked in the reorder stage into freed ring
// slots and lifts backpressure once the buffer has drained below half.
// Runs on application threads; if flow-control work remains it asks the
// owning shard to keep the flow probe armed.
func (r *RecvVC) maybeXon() {
	r.rxMu.Lock()
	r.flushInOrderLocked()
	if r.xoff && r.xonReadyLocked() {
		r.xoff = false
		r.endStallLocked()
		r.e.sendCtl(r.tuple.Source.Host, &pdu.Control{Kind: pdu.KindFlowOn, VC: r.id})
	}
	need := r.xoff || len(r.pendingOut) != 0
	r.rxMu.Unlock()
	if need {
		r.requestFlowArm()
	}
}

// xonReadyLocked reports whether backpressure can be lifted: the ring has
// drained below half and nothing is parked in the reorder stage. While
// the delivery gate is held (priming) the buffer must fill completely, so
// any free slot lifts backpressure — the half-drained test would deadlock
// a ring that parked one short of full just before the gate closed, since
// a held gate admits no Reads to drain it. Caller holds rxMu.
func (r *RecvVC) xonReadyLocked() bool {
	if len(r.pendingOut) != 0 {
		return false
	}
	if r.ring.Gated() {
		return r.ring.Free() > 0
	}
	return r.ring.Free() >= r.ring.Cap()/2
}

// ackTick periodically acknowledges and sweeps stale state for
// acknowledging classes: it re-requests long-missing TPDUs and declares
// dead OSDUs whose retransmissions never arrived. Shard context; repeats
// every RTO for the VC's lifetime.
func (r *RecvVC) ackTick() {
	deadAfter := 4 * r.e.cfg.RTO
	r.rxMu.Lock()
	if r.maxSeen > 0 {
		r.sendAckLocked()
	}
	if r.class.Corrects() {
		now := r.e.clk.Now()
		for s, since := range r.missing {
			if now.Sub(since) > deadAfter {
				delete(r.missing, s)
			}
		}
		// Declare head-of-line OSDUs dead when their reassembly has
		// stalled past the dead horizon.
		for seq, p := range r.asm {
			if now.Sub(p.started) > deadAfter {
				delete(r.asm, seq)
			}
		}
		// If the head OSDU can no longer complete — nothing of it
		// is under reassembly and no missing TPDU (which a
		// retransmission could still fill) remains — skip past it.
		if next, ok := r.oldestPendingLocked(); ok && len(r.missing) == 0 && next > r.nextDeliver {
			headStalled := true
			for s := r.nextDeliver; s < next; s++ {
				if _, inAsm := r.asm[s]; inAsm {
					headStalled = false
					break
				}
			}
			if headStalled {
				r.countLost(int(next - r.nextDeliver))
				r.nextDeliver = next
				r.flushInOrderLocked()
			}
		}
	}
	r.rxMu.Unlock()
	r.armFlowIfNeeded()
	r.sh.schedule(&r.ackTimer, r.e.cfg.RTO, r.ackTick)
}

// sampleTick closes the QoS monitor every sample period and raises
// T-QoS.indication when the class indicates and the contract was violated
// (Table 2). Shard context; repeats every sample period.
func (r *RecvVC) sampleTick() {
	period := r.e.cfg.SamplePeriod
	rep := r.mon.Close(period)
	r.reports.Lock()
	r.reports.last = rep
	if len(r.reports.all) >= maxReports {
		copy(r.reports.all, r.reports.all[1:])
		r.reports.all = r.reports.all[:maxReports-1]
	}
	r.reports.all = append(r.reports.all, rep)
	r.reports.Unlock()

	// Publish the period's measured QoS as gauges.
	r.si.qosThr.Set(rep.Throughput)
	r.si.qosDelay.Set(rep.MeanDelay.Seconds())
	r.si.qosJitter.Set(rep.Jitter.Seconds())
	r.si.qosPER.Set(rep.PER)
	r.si.qosBER.Set(rep.BER)

	r.sh.schedule(&r.sampleTimer, period, r.sampleTick)

	contract := r.Contract()
	violated := rep.Violations(contract, r.e.cfg.QoSSlack)
	r.si.violations.Add(uint64(len(violated)))
	if !r.class.Indicates() {
		return
	}
	if len(violated) > 0 {
		// Local T-QoS.indication at the sink user ...
		r.e.trace("dest", core.TQoSIndication)
		if u, ok := r.e.user(r.tuple.Dest.TSAP); ok && u.OnQoS != nil {
			u.OnQoS(QoSIndication{
				VC: r.id, Tuple: r.tuple, Contract: contract,
				Report: rep, Violated: violated,
			})
		}
	} else if r.e.cfg.PredictThreshold <= 0 {
		// Without the predictive guard only violated periods travel —
		// the paper's T-QoS.indication discipline, and zero overhead for
		// clean streams. With the guard enabled every period is relayed
		// so the source predictor sees trends before they violate.
		return
	}
	// Relay toward source (and initiator, via the source).
	q := &pdu.QoSReport{VC: r.id, Tuple: r.tuple, Report: rep, Violated: violated}
	_ = r.e.net.Send(netif.Packet{
		Src: r.tuple.Dest.Host, Dst: r.tuple.Source.Host,
		Prio: netif.PrioControl, Payload: q.Marshal(nil),
	})
}

// sealResumePoint seals the incarnation and returns the exact delivery
// watermark a successor must resume from. For ring delivery that is the
// sealed ring's consumed watermark; for a tapped VC the ring is bypassed,
// so the watermark is whatever the tap has accepted (DeliveredSeq) — the
// tap owner's own retention carries everything at or above it.
func (r *RecvVC) sealResumePoint() core.OSDUSeq {
	seq := r.ring.Seal()
	r.rxMu.Lock()
	if r.tap != nil {
		if d := core.OSDUSeq(r.deliveredSeq.Load()); d > seq {
			seq = d
		}
	}
	r.rxMu.Unlock()
	return seq
}

// shardClose disarms the VC's wheel timers; shard context.
func (r *RecvVC) shardClose() {
	r.sh.wheel.Cancel(&r.sampleTimer)
	r.sh.wheel.Cancel(&r.ackTimer)
	r.sh.wheel.Cancel(&r.flowTimer)
}

// teardown stops the VC's periodic work and frees its resources. Safe to
// call more than once.
func (r *RecvVC) teardown() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		close(r.done)
		r.ring.Close()
		r.e.dropRecv(r)
		// Tombstone for a possible resume: Close (unlike Seal) lets the
		// application drain what is already buffered, and the consumed
		// watermark keeps advancing until a resume seals it.
		r.e.noteResumable(r)
		r.sh.post(shardEvent{kind: evCloseRecv, recv: r})
	})
}
