// Package faultnet wraps any netif.Network in a scriptable fault
// injector: probabilistic drop (global, per-flow, per-priority),
// Gilbert–Elliott bursty loss, duplication, one-packet reordering,
// payload corruption, delay spikes, a deterministic delay ramp,
// asymmetric host-pair partitions (instant or slow-onset), and
// whole-host crash/blackhole. All
// randomness comes from one seeded generator and all timing from the
// injected clock, so a fault scenario replays identically under the lab
// clock. Every injected fault increments a counter under the "fault"
// stats scope, giving chaos tests an exact account of what the run
// actually suffered.
package faultnet

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// reorderFlush bounds how long a packet is held back for reordering when
// no follow-up packet arrives to overtake it.
const reorderFlush = 5 * time.Millisecond

// Options configures a fault injector.
type Options struct {
	// Seed initialises the fault RNG; runs with the same seed and the
	// same Send sequence make identical fault decisions. Zero means 1.
	Seed int64
	// Clock schedules delayed and held-back deliveries (default: system).
	Clock clock.Clock
	// Stats is the scope the "fault" counters hang off (nil disables).
	Stats stats.Scope
}

// Network is a netif.Network that forwards to an inner substrate through
// the fault pipeline. The zero fault configuration is fully transparent.
type Network struct {
	inner netif.Network
	clk   clock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	drop     float64
	dropFlow map[core.VCID]float64
	dropPrio [netif.NumPriorities]float64
	dup      float64
	corrupt  float64
	reorder  float64
	delayP   float64
	delayD   time.Duration
	parts    map[[2]core.HostID]bool
	slow     map[[2]core.HostID]slowPart
	crashed  map[core.HostID]bool
	held     *netif.Packet

	// Gilbert–Elliott bursty-loss chain (nil when disabled): a two-state
	// Markov chain stepped once per packet, losing with pG in Good and pB
	// in Bad. Mean burst length is 1/pBG packets; stationary loss is
	// πB·pB + πG·pG with πB = pGB/(pGB+pBG).
	ge    *GEParams
	geBad bool

	// Delay ramp: every rampEvery packets the added delay grows by
	// rampStep, saturating at rampMax — a deterministic "congestion
	// builds" regime that predictors should see coming.
	rampStep  time.Duration
	rampEvery int
	rampMax   time.Duration
	rampCount uint64

	fi instr
}

// slowPart is one slow-onset partition: the a→b drop probability ramps
// linearly from 0 to 1 over the window, then the pair is fully cut.
type slowPart struct {
	start time.Time
	over  time.Duration
}

type instr struct {
	sent, dropped, duplicated, corrupted      *stats.Counter
	delayed, reordered, partitioned, crashed_ *stats.Counter
	geDropped, ramped, slowPartitioned        *stats.Counter
}

// Wrap builds a fault injector in front of inner. With no faults
// configured it is a transparent pass-through.
func Wrap(inner netif.Network, o Options) *Network {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.System{}
	}
	sc := o.Stats.Scope("fault")
	return &Network{
		inner:    inner,
		clk:      o.Clock,
		rng:      rand.New(rand.NewSource(o.Seed)),
		dropFlow: make(map[core.VCID]float64),
		parts:    make(map[[2]core.HostID]bool),
		slow:     make(map[[2]core.HostID]slowPart),
		crashed:  make(map[core.HostID]bool),
		fi: instr{
			sent:            sc.Counter("sent"),
			dropped:         sc.Counter("dropped"),
			duplicated:      sc.Counter("duplicated"),
			corrupted:       sc.Counter("corrupted"),
			delayed:         sc.Counter("delayed"),
			reordered:       sc.Counter("reordered"),
			partitioned:     sc.Counter("partitioned"),
			crashed_:        sc.Counter("blackholed"),
			geDropped:       sc.Counter("ge_dropped"),
			ramped:          sc.Counter("ramp_delayed"),
			slowPartitioned: sc.Counter("slow_partitioned"),
		},
	}
}

// SetDrop sets the global drop probability.
func (n *Network) SetDrop(p float64) { n.mu.Lock(); n.drop = p; n.mu.Unlock() }

// SetFlowDrop sets a drop probability for one flow, on top of the global
// one; p <= 0 clears it.
func (n *Network) SetFlowDrop(vc core.VCID, p float64) {
	n.mu.Lock()
	if p <= 0 {
		delete(n.dropFlow, vc)
	} else {
		n.dropFlow[vc] = p
	}
	n.mu.Unlock()
}

// SetPrioDrop sets a drop probability for one priority class, on top of
// the global one.
func (n *Network) SetPrioDrop(prio netif.Priority, p float64) {
	if prio >= netif.NumPriorities {
		return
	}
	n.mu.Lock()
	n.dropPrio[prio] = p
	n.mu.Unlock()
}

// SetDuplicate sets the probability that a packet is sent twice.
func (n *Network) SetDuplicate(p float64) { n.mu.Lock(); n.dup = p; n.mu.Unlock() }

// SetCorrupt sets the probability that one payload bit is flipped (and
// the packet marked Damaged, as a substrate would after a checksum miss).
func (n *Network) SetCorrupt(p float64) { n.mu.Lock(); n.corrupt = p; n.mu.Unlock() }

// SetReorder sets the probability that a packet is held back until the
// next packet overtakes it (or a short flush timer fires).
func (n *Network) SetReorder(p float64) { n.mu.Lock(); n.reorder = p; n.mu.Unlock() }

// SetDelay makes packets suffer a d-long delay spike with probability p.
func (n *Network) SetDelay(p float64, d time.Duration) {
	n.mu.Lock()
	n.delayP, n.delayD = p, d
	n.mu.Unlock()
}

// SetGE enables Gilbert–Elliott bursty loss with the given transition
// and per-state loss probabilities; the chain starts in Good. Zero
// transition probabilities in both directions disable the model.
func (n *Network) SetGE(p GEParams) {
	n.mu.Lock()
	if p.PGB <= 0 && p.PBG <= 0 {
		n.ge = nil
	} else {
		cp := p
		n.ge = &cp
	}
	n.geBad = false
	n.mu.Unlock()
}

// SetDelayRamp enables the deterministic delay ramp: the added delay
// grows by step every `every` packets, saturating at max (0 = no cap).
// step <= 0 or every <= 0 disables the ramp and resets its progress.
func (n *Network) SetDelayRamp(step time.Duration, every int, max time.Duration) {
	n.mu.Lock()
	if step <= 0 || every <= 0 {
		n.rampStep, n.rampEvery, n.rampMax = 0, 0, 0
	} else {
		n.rampStep, n.rampEvery, n.rampMax = step, every, max
	}
	n.rampCount = 0
	n.mu.Unlock()
}

// SlowPartition starts a slow-onset partition from a to b: the drop
// probability on that direction ramps linearly from 0 to 1 over the
// window, after which the pair is fully cut (one direction only, like
// Partition). Heal removes it.
func (n *Network) SlowPartition(a, b core.HostID, over time.Duration) {
	if over <= 0 {
		n.Partition(a, b)
		return
	}
	n.mu.Lock()
	n.slow[[2]core.HostID{a, b}] = slowPart{start: n.clk.Now(), over: over}
	n.mu.Unlock()
}

// Partition blackholes packets from a to b (one direction only; call
// twice for a symmetric partition).
func (n *Network) Partition(a, b core.HostID) {
	n.mu.Lock()
	n.parts[[2]core.HostID{a, b}] = true
	n.mu.Unlock()
}

// Heal removes the a→b partition (instant or slow-onset).
func (n *Network) Heal(a, b core.HostID) {
	n.mu.Lock()
	delete(n.parts, [2]core.HostID{a, b})
	delete(n.slow, [2]core.HostID{a, b})
	n.mu.Unlock()
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.parts = make(map[[2]core.HostID]bool)
	n.slow = make(map[[2]core.HostID]slowPart)
	n.mu.Unlock()
}

// Crash blackholes a host entirely: nothing it sends leaves and nothing
// addressed to it arrives, exactly as if the process died.
func (n *Network) Crash(h core.HostID) {
	n.mu.Lock()
	n.crashed[h] = true
	n.mu.Unlock()
}

// Restore undoes Crash.
func (n *Network) Restore(h core.HostID) {
	n.mu.Lock()
	delete(n.crashed, h)
	n.mu.Unlock()
}

// Send runs the fault pipeline and forwards survivors to the inner
// substrate. Fault order: crash/partition, drop, corruption,
// duplication, delay spike, reordering.
func (n *Network) Send(p netif.Packet) error {
	var buf [3]netif.Packet // p, its duplicate, a released held packet
	out := buf[:0]
	n.decide(p, &out)
	var firstErr error
	for _, q := range out {
		if err := n.inner.Send(q); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// decide takes every fault decision for one packet and appends to out
// the packets that must go to the inner substrate now, in wire order:
// the packet itself (possibly corrupted), its duplicate, then a
// previously-held packet the reorderer releases behind it. Dropped,
// delayed (AfterFunc re-send) and newly-held packets append nothing.
func (n *Network) decide(p netif.Packet, out *[]netif.Packet) {
	n.mu.Lock()
	n.fi.sent.Inc()
	if n.crashed[p.Src] || n.crashed[p.Dst] {
		n.fi.crashed_.Inc()
		n.mu.Unlock()
		return
	}
	if n.parts[[2]core.HostID{p.Src, p.Dst}] {
		n.fi.partitioned.Inc()
		n.mu.Unlock()
		return
	}
	if sp, ok := n.slow[[2]core.HostID{p.Src, p.Dst}]; ok {
		frac := float64(n.clk.Now().Sub(sp.start)) / float64(sp.over)
		if frac >= 1 {
			n.fi.partitioned.Inc()
			n.mu.Unlock()
			return
		}
		if frac > 0 && n.rng.Float64() < frac {
			n.fi.slowPartitioned.Inc()
			n.mu.Unlock()
			return
		}
	}
	if n.ge != nil {
		// Step the chain once per packet, then lose with the state's
		// probability — losses cluster while the chain sits in Bad.
		if n.geBad {
			if n.rng.Float64() < n.ge.PBG {
				n.geBad = false
			}
		} else if n.rng.Float64() < n.ge.PGB {
			n.geBad = true
		}
		pl := n.ge.PG
		if n.geBad {
			pl = n.ge.PB
		}
		if pl > 0 && n.rng.Float64() < pl {
			n.fi.geDropped.Inc()
			n.mu.Unlock()
			return
		}
	}
	pDrop := n.drop
	if v, ok := n.dropFlow[p.Flow]; ok && p.Flow != 0 && v > pDrop {
		pDrop = v
	}
	if v := n.dropPrio[p.Prio]; v > pDrop {
		pDrop = v
	}
	if pDrop > 0 && n.rng.Float64() < pDrop {
		n.fi.dropped.Inc()
		n.mu.Unlock()
		return
	}
	if n.corrupt > 0 && len(p.Payload) > 0 && n.rng.Float64() < n.corrupt {
		flipped := make([]byte, len(p.Payload))
		copy(flipped, p.Payload)
		bit := n.rng.Intn(len(flipped) * 8)
		flipped[bit/8] ^= 1 << (bit % 8)
		p.Payload = flipped
		p.Damaged = true
		n.fi.corrupted.Inc()
	}
	dup := n.dup > 0 && n.rng.Float64() < n.dup
	var extra time.Duration
	if n.rampStep > 0 && n.rampEvery > 0 {
		d := time.Duration(n.rampCount/uint64(n.rampEvery)) * n.rampStep
		if n.rampMax > 0 && d > n.rampMax {
			d = n.rampMax
		}
		n.rampCount++
		if d > 0 {
			extra = d
			n.fi.ramped.Inc()
		}
	}
	if n.delayP > 0 && n.rng.Float64() < n.delayP {
		n.fi.delayed.Inc()
		extra += n.delayD
	}
	if extra > 0 {
		n.mu.Unlock()
		n.clk.AfterFunc(extra, func() { _ = n.inner.Send(p) })
		return
	}
	var release *netif.Packet
	if n.reorder > 0 && n.rng.Float64() < n.reorder && n.held == nil {
		// Hold this packet; the next Send (or the flush timer) lets it out
		// behind its successor.
		cp := p
		n.held = &cp
		n.fi.reordered.Inc()
		n.mu.Unlock()
		n.clk.AfterFunc(reorderFlush, n.flushHeld)
		return
	}
	release, n.held = n.held, nil
	n.mu.Unlock()

	*out = append(*out, p)
	if dup {
		n.fi.duplicated.Inc()
		*out = append(*out, p)
	}
	if release != nil {
		*out = append(*out, *release)
	}
}

// SendBatch implements netif.BatchSender over the fault pipeline: each
// packet of the batch takes its own fault decisions (drop, corruption,
// reordering are per-packet events on a real wire), so a batched sender
// above suffers exactly the faults a packet-at-a-time sender would. The
// survivors then go to the inner substrate as one batch: a segmenting
// (GSO) substrate underneath still sees coalescible runs instead of
// the per-packet sends that would defeat its batching.
func (n *Network) SendBatch(ps []netif.Packet) error {
	bs, ok := n.inner.(netif.BatchSender)
	if !ok {
		var firstErr error
		for _, p := range ps {
			if err := n.Send(p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	out := make([]netif.Packet, 0, len(ps)+2) // +2: a dup and a release can join
	for _, p := range ps {
		n.decide(p, &out)
	}
	if len(out) == 0 {
		return nil
	}
	return bs.SendBatch(out)
}

// flushHeld releases a reordered packet that nothing overtook in time.
func (n *Network) flushHeld() {
	n.mu.Lock()
	h := n.held
	n.held = nil
	n.mu.Unlock()
	if h != nil {
		_ = n.inner.Send(*h)
	}
}

// SetHandler delegates to the inner substrate.
func (n *Network) SetHandler(id core.HostID, h netif.Handler) error {
	return n.inner.SetHandler(id, h)
}

// Route delegates to the inner substrate.
func (n *Network) Route(src, dst core.HostID) ([]core.HostID, error) {
	return n.inner.Route(src, dst)
}

// PathCapability delegates to the inner substrate: injected faults are
// deliberately invisible to admission, exactly like real-world failures.
func (n *Network) PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error) {
	return n.inner.PathCapability(src, dst, pktSize)
}

// PathCapabilityAvoiding delegates the avoid-routed capability query when
// the inner substrate offers it, so failure recovery can renegotiate
// around dead hops through the fault injector too.
func (n *Network) PathCapabilityAvoiding(src, dst core.HostID, pktSize int, avoid []core.HostID) (qos.Capability, error) {
	type avoider interface {
		PathCapabilityAvoiding(src, dst core.HostID, pktSize int, avoid []core.HostID) (qos.Capability, error)
	}
	if a, ok := n.inner.(avoider); ok {
		return a.PathCapabilityAvoiding(src, dst, pktSize, avoid)
	}
	return n.inner.PathCapability(src, dst, pktSize)
}

// RouteAvoiding delegates the avoid-routing query when the inner substrate
// offers it; otherwise it degrades to the default route.
func (n *Network) RouteAvoiding(src, dst core.HostID, avoid []core.HostID) ([]core.HostID, error) {
	type avoider interface {
		RouteAvoiding(src, dst core.HostID, avoid []core.HostID) ([]core.HostID, error)
	}
	if a, ok := n.inner.(avoider); ok {
		return a.RouteAvoiding(src, dst, avoid)
	}
	return n.inner.Route(src, dst)
}

// MTU delegates to the inner substrate.
func (n *Network) MTU() int { return n.inner.MTU() }

// Close discards any held packet and closes the inner substrate.
func (n *Network) Close() {
	n.mu.Lock()
	n.held = nil
	n.mu.Unlock()
	n.inner.Close()
}

// GEParams are the Gilbert–Elliott chain's parameters: the per-packet
// Good→Bad and Bad→Good transition probabilities, and the per-state loss
// probabilities.
type GEParams struct {
	PGB, PBG, PG, PB float64
}

// MeanBurst is the expected length, in packets, of a stay in Bad.
func (g GEParams) MeanBurst() float64 {
	if g.PBG <= 0 {
		return 0
	}
	return 1 / g.PBG
}

// StationaryLoss is the chain's long-run packet loss probability.
func (g GEParams) StationaryLoss() float64 {
	den := g.PGB + g.PBG
	if den <= 0 {
		return g.PG
	}
	piB := g.PGB / den
	return piB*g.PB + (1-piB)*g.PG
}

// Spec is a parsed fault scenario, as accepted by cmd/netprobe's -fault
// flag: "drop=0.05,dup=0.01,corrupt=0.001,reorder=0.02,delay=10ms,
// delayp=0.1,ge=0.05:0.5:0:1,ramp=1ms:100:50ms,slowpart=2s,
// partition=2s". Partition and slow-partition scheduling is up to the
// caller (the injector does not know which hosts exist).
type Spec struct {
	Drop      float64
	Dup       float64
	Corrupt   float64
	Reorder   float64
	DelayProb float64
	Delay     time.Duration
	Partition time.Duration
	// GE enables Gilbert–Elliott bursty loss when non-nil.
	GE *GEParams
	// RampStep/RampEvery/RampMax configure the deterministic delay ramp.
	RampStep  time.Duration
	RampEvery int
	RampMax   time.Duration
	// SlowPartition is the onset window of a slow partition; which host
	// pair it cuts (and when it starts) is the caller's business.
	SlowPartition time.Duration
}

// ParseSpec parses a comma-separated fault list.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	if s == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return sp, fmt.Errorf("faultnet: %q is not key=value", field)
		}
		var err error
		switch k {
		case "drop":
			sp.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			sp.Dup, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			sp.Corrupt, err = strconv.ParseFloat(v, 64)
		case "reorder":
			sp.Reorder, err = strconv.ParseFloat(v, 64)
		case "delayp":
			sp.DelayProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			sp.Delay, err = time.ParseDuration(v)
		case "partition":
			sp.Partition, err = time.ParseDuration(v)
		case "ge":
			var g GEParams
			if g, err = parseGE(v); err == nil {
				sp.GE = &g
			}
		case "ramp":
			sp.RampStep, sp.RampEvery, sp.RampMax, err = parseRamp(v)
		case "slowpart":
			sp.SlowPartition, err = time.ParseDuration(v)
		default:
			return sp, fmt.Errorf("faultnet: unknown fault %q", k)
		}
		if err != nil {
			return sp, fmt.Errorf("faultnet: bad %s value %q: %v", k, v, err)
		}
	}
	if sp.Delay > 0 && sp.DelayProb == 0 {
		sp.DelayProb = 0.1
	}
	return sp, nil
}

// parseGE parses "pGB:pBG:pG:pB".
func parseGE(v string) (GEParams, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 4 {
		return GEParams{}, fmt.Errorf("want pGB:pBG:pG:pB, got %d fields", len(parts))
	}
	var g GEParams
	for i, dst := range []*float64{&g.PGB, &g.PBG, &g.PG, &g.PB} {
		f, err := strconv.ParseFloat(parts[i], 64)
		if err != nil {
			return GEParams{}, err
		}
		if f < 0 || f > 1 {
			return GEParams{}, fmt.Errorf("probability %g out of [0,1]", f)
		}
		*dst = f
	}
	if g.PGB <= 0 || g.PBG <= 0 {
		return GEParams{}, fmt.Errorf("transition probabilities must be positive")
	}
	return g, nil
}

// parseRamp parses "step:every:max".
func parseRamp(v string) (step time.Duration, every int, max time.Duration, err error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want step:every:max, got %d fields", len(parts))
	}
	if step, err = time.ParseDuration(parts[0]); err != nil {
		return 0, 0, 0, err
	}
	if every, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, 0, err
	}
	if max, err = time.ParseDuration(parts[2]); err != nil {
		return 0, 0, 0, err
	}
	if step <= 0 || every <= 0 {
		return 0, 0, 0, fmt.Errorf("step and every must be positive")
	}
	return step, every, max, nil
}

// String renders the spec back into the ParseSpec grammar (canonical
// field order, zero fields omitted), so specs round-trip.
func (sp Spec) String() string {
	var parts []string
	addF := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	addD := func(k string, v time.Duration) {
		if v > 0 {
			parts = append(parts, k+"="+v.String())
		}
	}
	addF("drop", sp.Drop)
	addF("dup", sp.Dup)
	addF("corrupt", sp.Corrupt)
	addF("reorder", sp.Reorder)
	addF("delayp", sp.DelayProb)
	addD("delay", sp.Delay)
	if sp.GE != nil {
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		parts = append(parts, fmt.Sprintf("ge=%s:%s:%s:%s",
			f(sp.GE.PGB), f(sp.GE.PBG), f(sp.GE.PG), f(sp.GE.PB)))
	}
	if sp.RampStep > 0 && sp.RampEvery > 0 {
		parts = append(parts, fmt.Sprintf("ramp=%s:%d:%s", sp.RampStep, sp.RampEvery, sp.RampMax))
	}
	addD("slowpart", sp.SlowPartition)
	addD("partition", sp.Partition)
	return strings.Join(parts, ",")
}

// Apply configures the injector's scalar faults from a parsed Spec.
// Partitions (instant and slow) are time-scheduled by the caller.
func (n *Network) Apply(sp Spec) {
	n.SetDrop(sp.Drop)
	n.SetDuplicate(sp.Dup)
	n.SetCorrupt(sp.Corrupt)
	n.SetReorder(sp.Reorder)
	n.SetDelay(sp.DelayProb, sp.Delay)
	if sp.GE != nil {
		n.SetGE(*sp.GE)
	} else {
		n.SetGE(GEParams{})
	}
	n.SetDelayRamp(sp.RampStep, sp.RampEvery, sp.RampMax)
}
