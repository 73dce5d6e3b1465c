package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// wideLink is a link the pacing tests cannot saturate: netem serialises
// each packet with a sleep of its transmission time, and at fastLink's
// 50 MB/s a 1 KB packet's 20 µs sleep rounds up to most of a millisecond,
// so the emulator, not the pacer under test, would cap the VC.
func wideLink() netem.LinkConfig {
	return netem.LinkConfig{Bandwidth: 1e9, Delay: 200 * time.Microsecond, QueueLen: 4096}
}

// pump1K keeps s's ring full of 1 KB OSDUs until stop closes or the VC
// ends.
func pump1K(s *SendVC, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	payload := make([]byte, 1024)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := s.Write(payload, 0); err != nil {
			return
		}
	}
}

// bestRate measures count()'s growth per second over up to three
// one-second windows after warmup and returns the best, stopping at the
// first that reaches want. A window in which the test binary is starved
// of CPU (a loaded machine, a parallel go test) says nothing about the
// pacer; a pacer that clips earned credit misses want in every window.
func bestRate(count func() uint64, warmup time.Duration, want float64) float64 {
	time.Sleep(warmup)
	best := 0.0
	for i := 0; i < 3 && best < want; i++ {
		n0, t0 := count(), time.Now()
		time.Sleep(time.Second)
		best = max(best, float64(count()-n0)/time.Since(t0).Seconds())
	}
	return best
}

// A backlogged cm-rate VC of 1 KB OSDUs must transmit at its contract:
// one OSDU per 250 µs, paced by a wheel that wakes only every millisecond.
// A bucket that clips a late wake's earned credit to the two-OSDU burst
// sends about three OSDUs per tick, some 60% of the contract.
func TestCMRateVCReachesContract(t *testing.T) {
	const contract = 4000
	reg := stats.NewRegistry()
	r := newRig(t, 2, wideLink(), Config{Stats: reg})
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: contract, Acceptable: 10}
	spec.MaxOSDUSize = 1024
	s, rv := connectPair(t, r, qos.ClassDetectCorrectIndicate, qos.ProfileCMRate, spec)
	if got := s.Contract().Throughput; got != contract {
		t.Fatalf("contract throughput %g, want %d", got, contract)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go pump1K(s, stop, &wg)
	drain(rv)
	got := bestRate(s.Sent, 200*time.Millisecond, 0.85*contract)
	close(stop)
	_ = s.Close(core.ReasonUserInitiated)
	wg.Wait()

	t.Logf("sent %.0f OSDU/s against a contract of %d", got, contract)
	if got < 0.85*contract {
		t.Errorf("sent %.0f OSDU/s, want >= %.0f (0.85 × contract %d)", got, 0.85*contract, contract)
	}
	lost := reg.Counter(fmt.Sprintf("host/2/vc/%d/recv/osdus_lost", uint32(rv.ID()))).Value()
	if lost != 0 {
		t.Errorf("osdus_lost = %d, want 0", lost)
	}
}

// The sink's delivery pacer (SetDeliveryRate) waits with Wait(1) on a
// runtime sleep that rounds sub-millisecond waits up; it must still
// release its set rate to a reader whose ring is kept full.
func TestDeliveryRateReachesRate(t *testing.T) {
	const deliver = 2000
	r := newRig(t, 2, wideLink(), Config{})
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 2 * deliver, Acceptable: 10}
	spec.MaxOSDUSize = 1024
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	rv.SetDeliveryRate(deliver)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go pump1K(s, stop, &wg)
	drain(rv)
	// Wait for the ring to fill so the reader is never starved.
	deadline := time.Now().Add(2 * time.Second)
	for !rv.BufferFull() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := bestRate(rv.Delivered, 100*time.Millisecond, 0.9*deliver)
	close(stop)
	_ = s.Close(core.ReasonUserInitiated)
	wg.Wait()

	t.Logf("delivered %.0f OSDU/s at a set rate of %d", got, deliver)
	if got < 0.9*deliver {
		t.Errorf("delivered %.0f OSDU/s, want >= %.0f (0.9 × set rate %d)", got, 0.9*deliver, deliver)
	}
}
