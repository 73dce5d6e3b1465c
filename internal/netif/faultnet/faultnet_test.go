package faultnet

import (
	"sync"
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
)

// stubNet records every packet that survives the fault pipeline.
type stubNet struct {
	mu   sync.Mutex
	sent []netif.Packet
}

func (s *stubNet) Send(p netif.Packet) error {
	s.mu.Lock()
	s.sent = append(s.sent, p)
	s.mu.Unlock()
	return nil
}

func (s *stubNet) packets() []netif.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]netif.Packet(nil), s.sent...)
}

func (s *stubNet) SetHandler(core.HostID, netif.Handler) error { return nil }
func (s *stubNet) Route(a, b core.HostID) ([]core.HostID, error) {
	return []core.HostID{a, b}, nil
}
func (s *stubNet) PathCapability(core.HostID, core.HostID, int) (qos.Capability, error) {
	return qos.Capability{MaxThroughput: 1e6}, nil
}
func (s *stubNet) MTU() int { return 0 }
func (s *stubNet) Close()   {}

func pkt(flow core.VCID, prio netif.Priority, b byte) netif.Packet {
	return netif.Packet{Src: 1, Dst: 2, Flow: flow, Prio: prio, Payload: []byte{b, b, b, b}}
}

// TestDeterministicUnderSeed replays the same send sequence through two
// injectors with the same seed and demands identical survivor sets.
func TestDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []netif.Packet {
		inner := &stubNet{}
		n := Wrap(inner, Options{Seed: seed, Clock: clock.NewManual(time.Unix(0, 0))})
		n.SetDrop(0.5)
		n.SetCorrupt(0.2)
		n.SetDuplicate(0.1)
		for i := 0; i < 200; i++ {
			_ = n.Send(pkt(core.VCID(i), netif.PrioGuaranteed, byte(i)))
		}
		return inner.packets()
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d survivors", len(a), len(b))
	}
	for i := range a {
		if a[i].Flow != b[i].Flow || a[i].Damaged != b[i].Damaged {
			t.Fatalf("survivor %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].Flow != c[i].Flow {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault decisions")
		}
	}
}

func TestDropScopes(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 7})
	n.SetFlowDrop(9, 1.0)
	n.SetPrioDrop(netif.PrioBestEffort, 1.0)
	_ = n.Send(pkt(9, netif.PrioGuaranteed, 1)) // flow-dropped
	_ = n.Send(pkt(3, netif.PrioBestEffort, 2)) // prio-dropped
	_ = n.Send(pkt(3, netif.PrioGuaranteed, 3)) // survives
	_ = n.Send(pkt(0, netif.PrioControl, 4))    // survives
	got := inner.packets()
	if len(got) != 2 || got[0].Payload[0] != 3 || got[1].Payload[0] != 4 {
		t.Fatalf("survivors = %+v, want payloads 3 and 4", got)
	}
	n.SetFlowDrop(9, 0)
	_ = n.Send(pkt(9, netif.PrioGuaranteed, 5))
	if got := inner.packets(); len(got) != 3 || got[2].Payload[0] != 5 {
		t.Fatalf("flow drop not cleared: %+v", got)
	}
}

func TestCorruptionFlipsBitsAndMarksDamaged(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 7})
	n.SetCorrupt(1.0)
	orig := netif.Packet{Src: 1, Dst: 2, Flow: 4, Payload: []byte{0xAA, 0xAA}}
	_ = n.Send(orig)
	got := inner.packets()
	if len(got) != 1 {
		t.Fatalf("%d packets", len(got))
	}
	if !got[0].Damaged {
		t.Fatal("corrupted packet not marked Damaged")
	}
	if got[0].Flow != 4 {
		t.Fatal("flow attribution lost on damaged packet")
	}
	diff := 0
	for i := range got[0].Payload {
		if got[0].Payload[i] != orig.Payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d payload bytes changed, want exactly 1", diff)
	}
	if orig.Payload[0] != 0xAA || orig.Payload[1] != 0xAA {
		t.Fatal("corruption mutated the caller's buffer")
	}
}

func TestCrashAndPartitionAreAsymmetric(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 7})

	n.Partition(1, 2)
	_ = n.Send(pkt(0, netif.PrioControl, 1)) // 1→2 blocked
	_ = n.Send(netif.Packet{Src: 2, Dst: 1, Payload: []byte{2}})
	if got := inner.packets(); len(got) != 1 || got[0].Src != 2 {
		t.Fatalf("asymmetric partition: %+v", got)
	}
	n.Heal(1, 2)
	_ = n.Send(pkt(0, netif.PrioControl, 3))
	if got := inner.packets(); len(got) != 2 {
		t.Fatalf("heal failed: %+v", got)
	}

	n.Crash(2)
	_ = n.Send(pkt(0, netif.PrioControl, 4))                     // to crashed host
	_ = n.Send(netif.Packet{Src: 2, Dst: 1, Payload: []byte{5}}) // from crashed host
	_ = n.Send(netif.Packet{Src: 3, Dst: 1, Payload: []byte{6}}) // unrelated
	if got := inner.packets(); len(got) != 3 || got[2].Payload[0] != 6 {
		t.Fatalf("crash blackhole: %+v", got)
	}
	n.Restore(2)
	_ = n.Send(pkt(0, netif.PrioControl, 7))
	if got := inner.packets(); len(got) != 4 {
		t.Fatalf("restore failed: %+v", got)
	}
}

func TestReorderSwapsAdjacentPackets(t *testing.T) {
	inner := &stubNet{}
	clk := clock.NewManual(time.Unix(0, 0))
	n := Wrap(inner, Options{Seed: 7, Clock: clk})
	n.SetReorder(1.0)
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 1)) // held
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 2)) // overtakes, releases 1
	got := inner.packets()
	if len(got) != 2 || got[0].Payload[0] != 2 || got[1].Payload[0] != 1 {
		t.Fatalf("order = %+v, want 2 then 1", got)
	}
	// A lone held packet is flushed by the timer, never lost.
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 3))
	clk.Advance(reorderFlush)
	deadline := time.Now().Add(time.Second)
	for len(inner.packets()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("held packet never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := inner.packets(); got[2].Payload[0] != 3 {
		t.Fatalf("flushed packet = %+v", got[2])
	}
}

func TestDelaySpikeDefersDelivery(t *testing.T) {
	inner := &stubNet{}
	clk := clock.NewManual(time.Unix(0, 0))
	n := Wrap(inner, Options{Seed: 7, Clock: clk})
	n.SetDelay(1.0, 50*time.Millisecond)
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 1))
	if got := inner.packets(); len(got) != 0 {
		t.Fatalf("delayed packet delivered immediately: %+v", got)
	}
	clk.Advance(50 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for len(inner.packets()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("delayed packet never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDuplicateSendsTwice(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 7})
	n.SetDuplicate(1.0)
	_ = n.Send(pkt(5, netif.PrioGuaranteed, 1))
	got := inner.packets()
	if len(got) != 2 || got[0].Flow != 5 || got[1].Flow != 5 {
		t.Fatalf("duplication: %+v", got)
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("drop=0.05,dup=0.01,corrupt=0.001,reorder=0.02,delay=10ms,partition=2s")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Drop != 0.05 || sp.Dup != 0.01 || sp.Corrupt != 0.001 ||
		sp.Reorder != 0.02 || sp.Delay != 10*time.Millisecond ||
		sp.DelayProb != 0.1 || sp.Partition != 2*time.Second {
		t.Fatalf("parsed %+v", sp)
	}
	if _, err := ParseSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("drop"); err == nil {
		t.Fatal("missing value accepted")
	}
	if sp, err := ParseSpec(""); err != nil || sp != (Spec{}) {
		t.Fatalf("empty spec: %+v, %v", sp, err)
	}
}

// TestHealRestoreIdempotent pins the recovery-path contract the session
// and soak layers lean on: Heal/Restore are idempotent, healing or
// restoring something that was never faulted is a no-op, and repeated
// Crash calls don't deepen the fault (one Restore always suffices).
func TestHealRestoreIdempotent(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 7})

	// Heal without a partition, and Restore without a crash: no-ops.
	n.Heal(1, 2)
	n.Restore(2)
	_ = n.Send(pkt(0, netif.PrioControl, 1))
	if got := inner.packets(); len(got) != 1 {
		t.Fatalf("no-op heal/restore perturbed the pipeline: %+v", got)
	}

	// Double Partition then double Heal: still healed after one pair.
	n.Partition(1, 2)
	n.Partition(1, 2)
	_ = n.Send(pkt(0, netif.PrioControl, 2))
	if got := inner.packets(); len(got) != 1 {
		t.Fatalf("partition leaked a packet: %+v", got)
	}
	n.Heal(1, 2)
	n.Heal(1, 2)
	_ = n.Send(pkt(0, netif.PrioControl, 3))
	if got := inner.packets(); len(got) != 2 {
		t.Fatalf("double heal left the partition up: %+v", got)
	}

	// Double Crash is one fault: a single Restore revives the host.
	n.Crash(2)
	n.Crash(2)
	_ = n.Send(pkt(0, netif.PrioControl, 4))
	if got := inner.packets(); len(got) != 2 {
		t.Fatalf("crash leaked a packet: %+v", got)
	}
	n.Restore(2)
	_ = n.Send(pkt(0, netif.PrioControl, 5))
	if got := inner.packets(); len(got) != 3 {
		t.Fatalf("restore after double crash failed: %+v", got)
	}
	n.Restore(2)
	_ = n.Send(pkt(0, netif.PrioControl, 6))
	if got := inner.packets(); len(got) != 4 {
		t.Fatalf("second restore broke the pipeline: %+v", got)
	}

	// HealAll clears every partition at once and is safe when empty.
	n.Partition(1, 2)
	n.Partition(2, 1)
	n.HealAll()
	n.HealAll()
	_ = n.Send(pkt(0, netif.PrioControl, 7))
	_ = n.Send(netif.Packet{Src: 2, Dst: 1, Payload: []byte{8}})
	if got := inner.packets(); len(got) != 6 {
		t.Fatalf("HealAll left a partition up: %+v", got)
	}
}

func TestParseSpecGERoundTrip(t *testing.T) {
	in := "drop=0.05,delayp=0.1,delay=10ms,ge=0.05:0.5:0:1,ramp=1ms:100:50ms,slowpart=2s,partition=2s"
	sp, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if sp.GE == nil || sp.GE.PGB != 0.05 || sp.GE.PBG != 0.5 || sp.GE.PG != 0 || sp.GE.PB != 1 {
		t.Fatalf("GE parsed as %+v", sp.GE)
	}
	if sp.RampStep != time.Millisecond || sp.RampEvery != 100 || sp.RampMax != 50*time.Millisecond {
		t.Fatalf("ramp parsed as %v:%d:%v", sp.RampStep, sp.RampEvery, sp.RampMax)
	}
	if sp.SlowPartition != 2*time.Second {
		t.Fatalf("slowpart parsed as %v", sp.SlowPartition)
	}
	if got := sp.String(); got != in {
		t.Fatalf("String() = %q, want %q", got, in)
	}
	sp2, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if sp2.String() != sp.String() {
		t.Fatalf("round trip drifted: %q vs %q", sp2.String(), sp.String())
	}

	for _, bad := range []string{
		"ge=0.1:0.5:0", "ge=0.1:0.5:0:2", "ge=0:0:0:1", "ge=a:b:c:d",
		"ramp=1ms:0:5ms", "ramp=1ms:10", "ramp=-1ms:10:5ms",
		"slowpart=xyz",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestGEBurstStatistics checks the chain against its closed-form moments:
// with pG=0 and pB=1 the missing-packet runs are exactly the Bad-state
// stays, so mean burst length must approach 1/pBG and the loss rate the
// stationary probability pGB/(pGB+pBG).
func TestGEBurstStatistics(t *testing.T) {
	inner := &stubNet{}
	n := Wrap(inner, Options{Seed: 42})
	ge := GEParams{PGB: 0.1, PBG: 0.5, PG: 0, PB: 1}
	n.SetGE(ge)
	const N = 40000
	for i := 0; i < N; i++ {
		_ = n.Send(netif.Packet{Src: 1, Dst: 2, Payload: []byte{byte(i), byte(i >> 8), byte(i >> 16)}})
	}
	got := inner.packets()
	arrived := make([]bool, N)
	for _, p := range got {
		idx := int(p.Payload[0]) | int(p.Payload[1])<<8 | int(p.Payload[2])<<16
		arrived[idx] = true
	}
	lost, bursts, run := 0, 0, 0
	var runSum int
	for i := 0; i < N; i++ {
		if !arrived[i] {
			lost++
			run++
			continue
		}
		if run > 0 {
			bursts++
			runSum += run
			run = 0
		}
	}
	if run > 0 {
		bursts++
		runSum += run
	}
	lossRate := float64(lost) / N
	if want := ge.StationaryLoss(); lossRate < want-0.02 || lossRate > want+0.02 {
		t.Errorf("loss rate = %.3f, want %.3f ± 0.02", lossRate, want)
	}
	meanBurst := float64(runSum) / float64(bursts)
	if want := ge.MeanBurst(); meanBurst < want-0.3 || meanBurst > want+0.3 {
		t.Errorf("mean burst = %.2f packets, want %.2f ± 0.3", meanBurst, want)
	}
	// Bursty ≠ uniform: under independent drops at the same rate the
	// expected run length would be 1/(1-p) ≈ 1.2, well below 2.
	if meanBurst < 1.5 {
		t.Errorf("mean burst = %.2f, losses are not clustered", meanBurst)
	}
}

func TestDelayRampGrowsDeferral(t *testing.T) {
	inner := &stubNet{}
	clk := clock.NewManual(time.Unix(0, 0))
	n := Wrap(inner, Options{Seed: 7, Clock: clk})
	n.SetDelayRamp(time.Millisecond, 10, 3*time.Millisecond)

	for i := 0; i < 10; i++ { // ramp still at 0: immediate
		_ = n.Send(pkt(0, netif.PrioGuaranteed, byte(i)))
	}
	if got := inner.packets(); len(got) != 10 {
		t.Fatalf("first tranche: %d delivered, want 10", len(got))
	}
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 10)) // 11th: +1ms
	if got := inner.packets(); len(got) != 10 {
		t.Fatal("ramped packet delivered immediately")
	}
	clk.Advance(time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for len(inner.packets()) < 11 {
		if time.Now().After(deadline) {
			t.Fatal("ramped packet never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	// Drive far past the cap; the added delay must saturate at 3ms.
	for i := 0; i < 100; i++ {
		_ = n.Send(pkt(0, netif.PrioGuaranteed, byte(i)))
	}
	clk.Advance(3 * time.Millisecond)
	deadline = time.Now().Add(time.Second)
	for len(inner.packets()) < 111 {
		if time.Now().After(deadline) {
			t.Fatalf("saturated ramp: %d delivered, want 111 after 3ms", len(inner.packets()))
		}
		time.Sleep(time.Millisecond)
	}
	n.SetDelayRamp(0, 0, 0) // disable: back to immediate
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 99))
	if got := inner.packets(); len(got) != 112 {
		t.Fatalf("disabled ramp still deferring: %d", len(got))
	}
}

func TestSlowPartitionRampsToCut(t *testing.T) {
	inner := &stubNet{}
	clk := clock.NewManual(time.Unix(0, 0))
	n := Wrap(inner, Options{Seed: 11, Clock: clk})
	n.SlowPartition(1, 2, 100*time.Millisecond)

	_ = n.Send(pkt(0, netif.PrioGuaranteed, 1)) // t=0: frac 0, passes
	if got := inner.packets(); len(got) != 1 {
		t.Fatalf("onset not gradual: %d packets at t=0", len(got))
	}
	clk.Advance(50 * time.Millisecond) // frac 0.5
	before := len(inner.packets())
	const N = 2000
	for i := 0; i < N; i++ {
		_ = n.Send(pkt(0, netif.PrioGuaranteed, byte(i)))
	}
	passed := len(inner.packets()) - before
	if frac := float64(passed) / N; frac < 0.35 || frac > 0.65 {
		t.Errorf("half-way survivor fraction = %.2f, want ≈ 0.5", frac)
	}
	// Reverse direction is untouched.
	_ = n.Send(netif.Packet{Src: 2, Dst: 1, Payload: []byte{9}})
	mid := len(inner.packets())
	clk.Advance(60 * time.Millisecond) // past the window: full cut
	for i := 0; i < 50; i++ {
		_ = n.Send(pkt(0, netif.PrioGuaranteed, byte(i)))
	}
	if got := len(inner.packets()); got != mid {
		t.Errorf("fully-ramped partition leaked %d packets", got-mid)
	}
	n.Heal(1, 2)
	_ = n.Send(pkt(0, netif.PrioGuaranteed, 42))
	if got := len(inner.packets()); got != mid+1 {
		t.Error("heal did not clear the slow partition")
	}
}
