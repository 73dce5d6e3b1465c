package lab

import (
	"testing"
	"time"

	"cmtos/internal/qos"
)

func TestEnvBuildAndConnect(t *testing.T) {
	env, err := NewEnv(EnvConfig{Hosts: 3, Link: DefaultLink()})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	p, err := env.Connect(1, 3, 0, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(100, 512))
	if err != nil {
		t.Fatal(err)
	}
	sink := env.Play(p, 100, 128, 30, 5*time.Second)
	st := sink.Stats()
	if st.Received < 30 {
		t.Fatalf("received %d/30", st.Received)
	}
	if st.Corrupt != 0 {
		t.Fatalf("corrupt frames: %d", st.Corrupt)
	}
}

func TestConnectOnceShape(t *testing.T) {
	res, err := ConnectOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local <= 0 || res.Remote <= 0 {
		t.Fatalf("latencies: %+v", res)
	}
	// A remote connect adds the initiator→source relay leg.
	if res.Remote < res.Local/2 {
		t.Fatalf("remote (%v) implausibly faster than local (%v)", res.Remote, res.Local)
	}
}

func TestQoSIndicationOnceShape(t *testing.T) {
	res, err := QoSIndicationOnce()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReportedPER < 0.05 {
		t.Fatalf("reported PER %.3f, injected 0.20", res.ReportedPER)
	}
	if res.DetectLatency > 5*time.Second {
		t.Fatalf("detection took %v", res.DetectLatency)
	}
}

func TestRenegotiateOnceShape(t *testing.T) {
	res, err := RenegotiateOnce()
	if err != nil {
		t.Fatal(err)
	}
	if res.Upgraded != 150 {
		t.Fatalf("upgraded to %g, want 150", res.Upgraded)
	}
	if !res.RejectedIntact {
		t.Fatal("VC died after rejected renegotiation")
	}
}

func TestOrchSessionOnceShape(t *testing.T) {
	lat, err := OrchSessionOnce(4)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > 5*time.Second {
		t.Fatalf("setup latency %v", lat)
	}
}

func TestStartSkewOnceShape(t *testing.T) {
	res, err := StartSkewOnce(3)
	if err != nil {
		t.Fatal(err)
	}
	// The headline: priming makes the start effectively simultaneous
	// while unprimed starts spread over the operator stagger + delays.
	if res.PrimedSkew >= res.UnprimedSkew {
		t.Fatalf("primed skew %v !< unprimed %v", res.PrimedSkew, res.UnprimedSkew)
	}
	if res.PrimedSkew > 50*time.Millisecond {
		t.Fatalf("primed skew %v too large", res.PrimedSkew)
	}
}

func TestRegulateOnceShape(t *testing.T) {
	res, err := RegulateOnce(10, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals < 5 {
		t.Fatalf("only %d indications", res.Intervals)
	}
	// Steady-state tracking: transient scheduler contention (this test
	// shares the machine with the rest of the suite) may inflate early
	// intervals, but the absolute schedule must reconverge.
	if res.TailAbsLag > 30 {
		t.Fatalf("steady-state |lag| %.1f OSDUs at a 20/interval schedule (mean %.1f)",
			res.TailAbsLag, res.MeanAbsLag)
	}
}

func TestRateVsWindowOnceShape(t *testing.T) {
	res, err := RateVsWindowOnce(200)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-based pacing is isochronous; window delivery runs at
	// ack-clocked line speed, far from the media rate.
	if res.RatePaceErr > 0.2 {
		t.Fatalf("rate-based pace error %.2f", res.RatePaceErr)
	}
	if res.WindowPaceErr < res.RatePaceErr {
		t.Fatalf("window pace error %.2f !> rate %.2f", res.WindowPaceErr, res.RatePaceErr)
	}
	if res.WindowEarly <= res.RateEarly {
		t.Fatalf("window early frames %d !> rate %d", res.WindowEarly, res.RateEarly)
	}
}

func TestMuxVsSeparateOnceShape(t *testing.T) {
	res, err := MuxVsSeparateOnce(150)
	if err != nil {
		t.Fatal(err)
	}
	// Separate right-sized VCs reserve far less than a mux sized for the
	// most demanding medium (§3.6's third argument).
	if res.SeparateBandwidth >= res.MuxBandwidth {
		t.Fatalf("separate %.0f !< mux %.0f B/s", res.SeparateBandwidth, res.MuxBandwidth)
	}
}

func TestSharedBufVsCopyOnceShape(t *testing.T) {
	const size = 4096
	res := SharedBufVsCopyOnce(5000, size)
	if res.SharedNsPerOSDU <= 0 || res.CopyNsPerOSDU <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	t.Logf("allocs/OSDU shared %.4f copy %.2f; copy interface %.0f B/OSDU",
		res.SharedAllocsPerOSDU, res.CopyAllocsPerOSDU, res.CopyBytesPerOSDU)
	// The copy-based interface pays an allocation and a copy on each side
	// per OSDU; the shared ring reuses its slots and allocates nothing.
	// Counts, unlike time, hold under the race detector.
	if res.CopyAllocsPerOSDU < 2 {
		t.Errorf("copy interface allocates %.2f per OSDU, want >= 2", res.CopyAllocsPerOSDU)
	}
	if res.CopyBytesPerOSDU != 2*size {
		t.Errorf("copy interface copies %.0f B per OSDU, want %d", res.CopyBytesPerOSDU, 2*size)
	}
	if res.SharedAllocsPerOSDU >= 0.01 {
		t.Errorf("shared ring allocates %.3f per OSDU, want none", res.SharedAllocsPerOSDU)
	}
	// Wall-clock ns/OSDU is a gate only without the race detector, whose
	// instrumentation of the ring's locking inverts the shape.
	if !raceEnabled && res.CopyNsPerOSDU < res.SharedNsPerOSDU {
		t.Errorf("copy (%f) !> shared (%f) ns/OSDU", res.CopyNsPerOSDU, res.SharedNsPerOSDU)
	}
}

func TestDriftOnceShape(t *testing.T) {
	res, err := DriftOnce(2*time.Second, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegulatedSkew >= res.UnregulatedSkew {
		t.Fatalf("regulated skew %v !< unregulated %v", res.RegulatedSkew, res.UnregulatedSkew)
	}
}
