package relay_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif/faultnet"
	"cmtos/internal/qos"
	"cmtos/internal/relay"
	"cmtos/internal/resv"
	"cmtos/internal/session"
	"cmtos/internal/stats"
	"cmtos/internal/transport"
)

var sys clock.System

const (
	relayTSAP  = core.TSAP(50) // relay ingest listener
	egressTSAP = core.TSAP(55) // relay-side TSAP egress VCs originate from
	leafTSAP   = core.TSAP(60) // leaf sink listener
)

// rig is an in-process star-of-stars: every host on one emulated network
// behind a single fault injector, transport configured with fast liveness
// so crash tests resolve quickly.
type rig struct {
	fn    *faultnet.Network
	rm    *resv.Manager
	hosts map[core.HostID]*transport.Entity
}

// buildRig wires n hosts over one emulated network. A nil links slice
// means full mesh (the small unit-test rigs); the benchmark passes an
// explicit star so 64 leaves don't cost O(n²) links.
func buildRig(t testing.TB, n int, links [][2]core.HostID) *rig {
	t.Helper()
	nw := netem.New(sys)
	link := netem.LinkConfig{Bandwidth: 50e6, Delay: 200 * time.Microsecond, QueueLen: 4096}
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		if err := nw.AddHost(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if links == nil {
		for a := core.HostID(1); a <= core.HostID(n); a++ {
			for b := a + 1; b <= core.HostID(n); b++ {
				links = append(links, [2]core.HostID{a, b})
			}
		}
	}
	for _, l := range links {
		if err := nw.AddLink(l[0], l[1], link); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	fn := faultnet.Wrap(nw, faultnet.Options{Seed: 42, Clock: sys})
	rm := resv.New(nw)
	r := &rig{fn: fn, rm: rm, hosts: make(map[core.HostID]*transport.Entity)}
	cfg := transport.Config{
		RingSlots:         16,
		ConnectTimeout:    time.Second,
		KeepaliveInterval: 200 * time.Millisecond,
		KeepaliveMisses:   2,
	}
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		e, err := transport.NewEntity(id, sys, fn, rm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.hosts[id] = e
	}
	t.Cleanup(func() {
		for _, e := range r.hosts {
			e.Close()
		}
		fn.Close()
	})
	return r
}

func relaySpec(rate float64) qos.Spec {
	return qos.Spec{
		Throughput:  qos.Tolerance{Preferred: rate, Acceptable: rate / 10},
		MaxOSDUSize: 512,
		Delay:       qos.CeilTolerance{Preferred: 0.001, Acceptable: 0.5},
		Jitter:      qos.CeilTolerance{Preferred: 0.001, Acceptable: 0.5},
		PER:         qos.CeilTolerance{Preferred: 0, Acceptable: 0.5},
		BER:         qos.CeilTolerance{Preferred: 0, Acceptable: 1e-2},
		Guarantee:   qos.Soft,
	}
}

// leafRec drains a leaf's sink VCs and records every delivered sequence.
type leafRec struct {
	mu   sync.Mutex
	seqs []core.OSDUSeq
}

func (l *leafRec) snapshot() []core.OSDUSeq {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]core.OSDUSeq(nil), l.seqs...)
}

func (l *leafRec) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seqs)
}

// listenLeaf attaches a recording sink at the host's leafTSAP. A resumed
// VC arrives as a fresh OnRecvReady, so the reader survives re-parenting.
func listenLeaf(t testing.TB, e *transport.Entity) *leafRec {
	t.Helper()
	l := &leafRec{}
	if err := e.Attach(leafTSAP, transport.UserCallbacks{
		OnRecvReady: func(rv *transport.RecvVC) {
			go func() {
				for {
					u, err := rv.Read()
					if err != nil {
						return
					}
					l.mu.Lock()
					l.seqs = append(l.seqs, u.Seq)
					l.mu.Unlock()
				}
			}()
		},
	}); err != nil {
		t.Fatal(err)
	}
	return l
}

func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// spliceOf waits for the relay to accept the ingest VC and build a splice.
func spliceOf(t testing.TB, n *relay.Node, vc core.VCID) *relay.Splice {
	t.Helper()
	var sp *relay.Splice
	if !waitUntil(5*time.Second, func() bool {
		var ok bool
		sp, ok = n.Splice(vc)
		return ok
	}) {
		t.Fatalf("relay never built a splice for ingest VC %v", vc)
	}
	return sp
}

// assertExact checks the leaf saw exactly 0..total-1 in order.
func assertExact(t *testing.T, who string, l *leafRec, total int) {
	t.Helper()
	if !waitUntil(15*time.Second, func() bool { return l.count() >= total }) {
		t.Fatalf("%s delivered %d/%d OSDUs", who, l.count(), total)
	}
	seqs := l.snapshot()
	if len(seqs) != total {
		t.Fatalf("%s delivered %d OSDUs, want exactly %d (duplicates)", who, len(seqs), total)
	}
	for i, got := range seqs {
		if got != core.OSDUSeq(i) {
			t.Fatalf("%s order broken at %d: got seq %d (gap or duplicate)", who, i, got)
		}
	}
}

// TestSpliceFanout is the basic tree data plane: source → relay → two
// leaves, every OSDU re-published boundary-intact to both, counted once
// per hop.
func TestSpliceFanout(t *testing.T) {
	const total = 200
	r := buildRig(t, 4, nil) // 1=source 2=relay 3,4=leaves
	reg := stats.NewRegistry()
	rn := relay.NewNode(r.hosts[2], relay.Config{Stats: reg})
	if err := rn.Listen(relayTSAP); err != nil {
		t.Fatal(err)
	}
	leaves := []*leafRec{listenLeaf(t, r.hosts[3]), listenLeaf(t, r.hosts[4])}

	sv, err := r.hosts[1].Connect(transport.ConnectRequest{
		SrcTSAP: core.TSAP(10),
		Dest:    core.Addr{Host: 2, TSAP: relayTSAP},
		Class:   qos.ClassDetectIndicate,
		Spec:    relaySpec(20e3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := spliceOf(t, rn, sv.ID())
	for _, leaf := range []core.HostID{3, 4} {
		if _, err := sp.AddSink(egressTSAP, core.Addr{Host: leaf, TSAP: leafTSAP}); err != nil {
			t.Fatalf("AddSink(%d): %v", leaf, err)
		}
	}
	if got := sp.Fanout(); got != 2 {
		t.Fatalf("fanout = %d, want 2", got)
	}

	payload := make([]byte, 32)
	for i := 0; i < total; i++ {
		if _, err := sv.Write(payload, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, l := range leaves {
		assertExact(t, fmt.Sprintf("leaf %d", 3+i), l, total)
	}

	// One splice acceptance per OSDU, not per egress.
	rep := sp.LastReport()
	if rep.Spliced != total {
		t.Errorf("spliced = %d, want %d", rep.Spliced, total)
	}
	if rep.Head != total {
		t.Errorf("head = %d, want %d", rep.Head, total)
	}
	// The hop counters must not double-charge the fan-out: the ingest
	// delivered `total` once, and each egress sent `total` fresh OSDUs.
	if got := sv.Sent(); got != total {
		t.Errorf("source sent = %d, want %d", got, total)
	}
	for _, eg := range sp.Egresses() {
		if got := eg.Written(); got != total {
			t.Errorf("egress %v written = %d, want %d", eg.ID(), got, total)
		}
		if got := eg.Replayed(); got != 0 {
			t.Errorf("egress %v replayed = %d, want 0 on the live path", eg.ID(), got)
		}
	}
}

// TestSpliceMidStreamJoin adds a sink while the stream is flowing: the
// leaf joins at the splice head and sees a contiguous suffix — no phantom
// loss for the prefix it never subscribed to, no gap after the join.
func TestSpliceMidStreamJoin(t *testing.T) {
	const before, after = 100, 100
	r := buildRig(t, 3, nil) // 1=source 2=relay 3=leaf
	rn := relay.NewNode(r.hosts[2], relay.Config{})
	if err := rn.Listen(relayTSAP); err != nil {
		t.Fatal(err)
	}
	leaf := listenLeaf(t, r.hosts[3])

	sv, err := r.hosts[1].Connect(transport.ConnectRequest{
		SrcTSAP: core.TSAP(10),
		Dest:    core.Addr{Host: 2, TSAP: relayTSAP},
		Class:   qos.ClassDetectIndicate,
		Spec:    relaySpec(20e3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := spliceOf(t, rn, sv.ID())

	payload := make([]byte, 32)
	for i := 0; i < before; i++ {
		if _, err := sv.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Let the splice absorb a non-trivial prefix before the join.
	if !waitUntil(10*time.Second, func() bool { return sp.Head() > 0 }) {
		t.Fatal("splice head never advanced")
	}
	if _, err := sp.AddSink(egressTSAP, core.Addr{Host: 3, TSAP: leafTSAP}); err != nil {
		t.Fatal(err)
	}
	joined := sp.Head() // the leaf owes at most [head at AddSink, ...)
	for i := 0; i < after; i++ {
		if _, err := sv.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}

	total := core.OSDUSeq(before + after)
	if !waitUntil(15*time.Second, func() bool {
		s := leaf.snapshot()
		return len(s) > 0 && s[len(s)-1] == total-1
	}) {
		t.Fatalf("leaf never reached the stream tail: %d delivered", leaf.count())
	}
	seqs := leaf.snapshot()
	if seqs[0] > joined {
		t.Errorf("first delivered seq %d is after the join head %d (gap)", seqs[0], joined)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("suffix not contiguous at %d: %d then %d", i, seqs[i-1], seqs[i])
		}
	}
}

// TestSpliceAdopt is the re-parent continuity check: a leaf fed through
// relay A is adopted by relay B (which carries the same stream) after A
// crashes, and the leaf's delivered sequence crosses the failure with
// zero gaps and zero duplicates.
func TestSpliceAdopt(t *testing.T) {
	const prefix, total = 60, 200
	r := buildRig(t, 4, nil) // 1=source 2=relayA 3=relayB 4=leaf
	var nodes [2]*relay.Node
	for i, h := range []core.HostID{2, 3} {
		nodes[i] = relay.NewNode(r.hosts[h], relay.Config{})
		if err := nodes[i].Listen(relayTSAP); err != nil {
			t.Fatal(err)
		}
	}
	leaf := listenLeaf(t, r.hosts[4])

	// The source feeds both direct children the same OSDU sequence — two
	// VCs, lock-step writes, so either relay can stand in for the other.
	feeds := make([]*transport.SendVC, 2)
	for i, h := range []core.HostID{2, 3} {
		sv, err := r.hosts[1].Connect(transport.ConnectRequest{
			SrcTSAP: core.TSAP(10 + i),
			Dest:    core.Addr{Host: h, TSAP: relayTSAP},
			Class:   qos.ClassDetectIndicate,
			Spec:    relaySpec(20e3),
		})
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = sv
	}
	spA := spliceOf(t, nodes[0], feeds[0].ID())
	spB := spliceOf(t, nodes[1], feeds[1].ID())

	evc, err := spA.AddSink(egressTSAP, core.Addr{Host: 4, TSAP: leafTSAP})
	if err != nil {
		t.Fatal(err)
	}
	leafVC := evc.ID()

	// Both feeds carry the first half of the prefix, and the leaf takes
	// all of it through relay A.
	payload := make([]byte, 32)
	for i := 0; i < prefix/2; i++ {
		for _, sv := range feeds {
			if _, err := sv.Write(payload, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !waitUntil(10*time.Second, func() bool { return leaf.count() >= prefix/2 }) {
		t.Fatalf("leaf stalled before the crash: %d delivered", leaf.count())
	}

	// Kill relay A mid-stream. The leaf's sink VC dies by keepalive and
	// leaves a resume tombstone; relay B adopts it from its own history.
	// The second half of the prefix reaches relay B only, so the leaf is
	// behind B's head by construction and adoption must replay the gap.
	r.fn.Crash(2)
	for i := prefix / 2; i < prefix; i++ {
		if _, err := feeds[1].Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(10*time.Second, func() bool { return spB.Head() >= prefix }) {
		t.Fatalf("relay B stalled at head %d, want %d", spB.Head(), prefix)
	}

	rp := session.NewReparenter(sys, session.ReparentPolicy{
		Attempts: 40, Backoff: 100 * time.Millisecond,
	})
	res := rp.Run([]session.Orphan{
		{VC: leafVC, Leaf: core.Addr{Host: 4, TSAP: leafTSAP}, SrcTSAP: egressTSAP},
	}, spB)
	headAtAdoption := spB.Head()
	if res[0].State != session.ReparentAdopted {
		t.Fatalf("adoption failed after %d attempts: %v", res[0].Attempts, res[0].Err)
	}
	rep := spB.LastReport()
	if rep.Fanout != 1 {
		t.Errorf("survivor fanout = %d, want 1", rep.Fanout)
	}
	if want := uint64(headAtAdoption - res[0].ResumedFrom); rep.Replayed != want || want == 0 {
		t.Errorf("adoption at watermark %d with head %d replayed %d OSDUs, want %d (> 0)",
			res[0].ResumedFrom, headAtAdoption, rep.Replayed, want)
	}

	// The stream continues through the survivor only.
	for i := prefix; i < total; i++ {
		if _, err := feeds[1].Write(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	assertExact(t, "re-parented leaf", leaf, total)
}

// BenchmarkRelayFanout measures the 1→64 splice end to end over the
// emulated network: allocations per source OSDU across tap, retention and
// 64 TryPublish fan-outs (plus the transport wire path on every hop).
func BenchmarkRelayFanout(b *testing.B) {
	const fan = 64
	links := [][2]core.HostID{{1, 2}}
	for i := 0; i < fan; i++ {
		links = append(links, [2]core.HostID{2, core.HostID(3 + i)})
	}
	r := buildRig(b, 2+fan, links) // 1=source 2=relay 3..66=leaves
	rn := relay.NewNode(r.hosts[2], relay.Config{RetainSlots: 8})
	if err := rn.Listen(relayTSAP); err != nil {
		b.Fatal(err)
	}
	leaves := make([]*leafRec, fan)
	for i := 0; i < fan; i++ {
		leaves[i] = listenLeaf(b, r.hosts[core.HostID(3+i)])
	}
	sv, err := r.hosts[1].Connect(transport.ConnectRequest{
		SrcTSAP: core.TSAP(10),
		Dest:    core.Addr{Host: 2, TSAP: relayTSAP},
		Class:   qos.ClassDetectIndicate,
		Spec:    relaySpec(20e3),
	})
	if err != nil {
		b.Fatal(err)
	}
	sp := spliceOf(b, rn, sv.ID())
	for i := 0; i < fan; i++ {
		if _, err := sp.AddSink(egressTSAP, core.Addr{Host: core.HostID(3 + i), TSAP: leafTSAP}); err != nil {
			b.Fatalf("AddSink(%d): %v", 3+i, err)
		}
	}
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Write(payload, 0); err != nil {
			b.Fatal(err)
		}
	}
	// The op under test is source-write → every leaf delivered.
	if !waitUntil(60*time.Second, func() bool {
		for _, l := range leaves {
			if l.count() < b.N {
				return false
			}
		}
		return true
	}) {
		b.Fatalf("fan-out never drained: %d/%d at slowest leaf", leaves[0].count(), b.N)
	}
	b.StopTimer()
}
