package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/stats"
	"cmtos/internal/timerwheel"
)

// The sharded transport core: instead of three-to-five goroutines per VC
// (send pump, retransmit, sample, flow, ack loops), an entity runs
// Config.Shards event-loop goroutines. Every VC is assigned to the shard
// hashed from its VCID and all of its protocol-side work — the send pump,
// retransmit deadlines, QoS sample ticks, XON/flow probes, XOFF leases,
// ack sweeps, and (on shard 0) the entity's keepalive probes — runs on
// that one goroutine, multiplexed through a hierarchical timer wheel.
//
// Two queues feed a shard:
//
//   - a bounded lock-free MPSC ring for per-packet events from the netif
//     receive path (data TPDUs, acks, XON/XOFF). These may be dropped
//     under overload — each is protocol-recoverable (retransmission,
//     cumulative acks, lease expiry / refresh) — and drops are counted in
//     shard/handoff_drops.
//   - an unbounded mutex-protected control queue for must-deliver events
//     (VC registration/teardown, pump wake-ups, timer arm requests).
//     These are rare, never dropped, and keep FIFO order, so a VC is
//     always registered on its shard before any consequence of its
//     existence arrives.
//
// Because one goroutine owns all of a VC's protocol state, per-VC
// ordering is free: data TPDUs for a VC are processed in arrival order,
// and timer callbacks never race packet handlers.

// shardEvent is one unit of work for a shard loop.
type shardEvent struct {
	kind uint8
	vc   core.VCID
	on   bool // evFlow: XOFF (true) or XON (false)
	data *pdu.Data
	ack  *pdu.Ack
	send *SendVC
	recv *RecvVC
	fn   func()
}

const (
	evNone uint8 = iota
	// Ring (droppable) events.
	evData
	evAck
	evFlow
	// Control (must-deliver) events.
	evRegSend
	evRegRecv
	evCloseSend
	evCloseRecv
	evPump
	evArmFlow
	evFn
)

// eventRing is a bounded multi-producer single-consumer queue (Vyukov
// bounded MPMC, consumed by one goroutine). Producers are the substrate
// delivery goroutines; the consumer is the shard loop.
type eventRing struct {
	mask  uint64
	cells []ringCell
	enq   atomic.Uint64
	deq   uint64 // single consumer: no atomics needed
}

type ringCell struct {
	seq atomic.Uint64
	ev  shardEvent
}

func newEventRing(size int) *eventRing {
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	r := &eventRing{mask: uint64(n - 1), cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// tryPush enqueues ev, reporting false when the ring is full.
func (r *eventRing) tryPush(ev shardEvent) bool {
	pos := r.enq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				cell.ev = ev
				cell.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			return false // full
		default:
			pos = r.enq.Load()
		}
	}
}

// pop dequeues the next event; single-consumer only.
func (r *eventRing) pop() (shardEvent, bool) {
	cell := &r.cells[r.deq&r.mask]
	if cell.seq.Load() != r.deq+1 {
		return shardEvent{}, false
	}
	ev := cell.ev
	cell.ev = shardEvent{} // drop references for GC
	cell.seq.Store(r.deq + uint64(len(r.cells)))
	r.deq++
	return ev, true
}

// shard is one event-loop goroutine of an entity.
type shard struct {
	e   *Entity
	idx int

	ring  *eventRing
	ctlMu sync.Mutex
	ctl   []shardEvent

	wake chan struct{} // capacity 1: a buffered token survives a race with parking
	done chan struct{}

	// Shard-confined VC tables: the per-packet path resolves VCs here,
	// never through the entity lock.
	sends map[core.VCID]*SendVC
	recvs map[core.VCID]*RecvVC

	wheel     *timerwheel.Wheel
	liveTimer timerwheel.Timer // shard 0: entity keepalive tick

	drops *stats.Counter
}

func newShard(e *Entity, idx int) *shard {
	return &shard{
		e:     e,
		idx:   idx,
		ring:  newEventRing(shardQueue),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		sends: make(map[core.VCID]*SendVC),
		recvs: make(map[core.VCID]*RecvVC),
		wheel: timerwheel.New(e.clk.Now(), 0),
		drops: e.scope.Counter("shard/handoff_drops"),
	}
}

// shardFor returns the shard owning a VC.
func (e *Entity) shardFor(vc core.VCID) *shard {
	return e.shards[uint32(vc)%uint32(len(e.shards))]
}

// schedule arms a timer d from real time on this shard's wheel. All shard
// code must use this instead of wheel.Schedule: the wheel's cursor lags
// real time while the loop parks, and a cursor-relative deadline would
// fire the whole backlog at once on the next catch-up Advance.
func (sh *shard) schedule(t *timerwheel.Timer, d time.Duration, fn func()) {
	sh.wheel.ScheduleAt(t, sh.e.clk.Now(), d, fn)
}

// notify wakes the shard loop; a token already in flight is enough.
func (sh *shard) notify() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// post appends a must-deliver event to the control queue.
func (sh *shard) post(ev shardEvent) {
	sh.ctlMu.Lock()
	sh.ctl = append(sh.ctl, ev)
	sh.ctlMu.Unlock()
	sh.notify()
}

// tryPost enqueues a droppable per-packet event, counting the drop when
// the ring is full (the protocol recovers: retransmission for data,
// cumulative coverage for acks, lease refresh/expiry for flow control).
func (sh *shard) tryPost(ev shardEvent) {
	if sh.ring.tryPush(ev) {
		sh.notify()
		return
	}
	sh.drops.Inc()
}

// loop is the shard goroutine: drain control events, drain the packet
// ring, advance the timer wheel, park until woken or the next deadline.
func (sh *shard) loop() {
	clk := sh.e.clk
	if sh.idx == 0 && sh.e.cfg.KeepaliveInterval > 0 {
		sh.schedule(&sh.liveTimer, sh.e.cfg.KeepaliveInterval, sh.livenessTick)
	}
	for {
		sh.ctlMu.Lock()
		ctl := sh.ctl
		sh.ctl = nil
		sh.ctlMu.Unlock()
		for i := range ctl {
			sh.handle(&ctl[i])
		}
		for {
			ev, ok := sh.ring.pop()
			if !ok {
				break
			}
			sh.handle(&ev)
		}
		sh.wheel.Advance(clk.Now())

		wait, armed := sh.wheel.NextWait(clk.Now())
		if !armed {
			select {
			case <-sh.wake:
			case <-sh.done:
				return
			}
			continue
		}
		if wait <= 0 {
			continue
		}
		t := clk.AfterFunc(wait, sh.notify)
		select {
		case <-sh.wake:
		case <-sh.done:
			t.Stop()
			return
		}
		t.Stop()
	}
}

// livenessTick runs the entity keepalive pass on shard 0 and re-arms.
func (sh *shard) livenessTick() {
	sh.e.livenessTick()
	sh.schedule(&sh.liveTimer, sh.e.cfg.KeepaliveInterval, sh.livenessTick)
}

func (sh *shard) handle(ev *shardEvent) {
	switch ev.kind {
	case evData:
		if r := sh.lookupRecv(ev.vc); r != nil {
			r.onData(ev.data)
			r.armFlowIfNeeded()
		}
	case evAck:
		if s := sh.lookupSend(ev.vc); s != nil {
			s.onAck(ev.ack)
		}
	case evFlow:
		if s := sh.lookupSend(ev.vc); s != nil {
			s.peerHold(ev.on)
		}
	case evRegSend:
		if !ev.send.isClosed() {
			sh.sends[ev.send.id] = ev.send
		}
		ev.send.pump()
	case evRegRecv:
		if !ev.recv.ring.Closed() {
			sh.recvs[ev.recv.id] = ev.recv
		}
		ev.recv.startOnShard()
	case evCloseSend:
		ev.send.shardClose()
		if sh.sends[ev.send.id] == ev.send {
			delete(sh.sends, ev.send.id)
		}
	case evCloseRecv:
		ev.recv.shardClose()
		if sh.recvs[ev.recv.id] == ev.recv {
			delete(sh.recvs, ev.recv.id)
		}
	case evPump:
		ev.send.pumpQueued.Store(false)
		ev.send.pump()
	case evArmFlow:
		ev.recv.flowArmQ.Store(false)
		ev.recv.armFlowIfNeeded()
	case evFn:
		ev.fn()
	}
}

// lookupSend resolves a VC on the fast shard-local table, falling back to
// the entity table for the short window between registration in the
// entity map and the shard processing evRegSend (possible when a peer
// replies faster than the shard drains a busy ring).
func (sh *shard) lookupSend(vc core.VCID) *SendVC {
	if s, ok := sh.sends[vc]; ok {
		return s
	}
	s, ok := sh.e.SourceVC(vc)
	if !ok || s.isClosed() {
		return nil
	}
	sh.sends[vc] = s
	return s
}

func (sh *shard) lookupRecv(vc core.VCID) *RecvVC {
	if r, ok := sh.recvs[vc]; ok {
		return r
	}
	r, ok := sh.e.SinkVC(vc)
	if !ok || r.ring.Closed() {
		return nil
	}
	sh.recvs[vc] = r
	return r
}
