package lab

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/media"
	"cmtos/internal/orch"
	"cmtos/internal/orch/hlo"
	"cmtos/internal/qos"
)

// ---------------------------------------------------------------------------
// T6 / F6: regulation — the Fig. 6 feedback loop in steady state.

// RegulateResult summarises a regulated play-out.
type RegulateResult struct {
	Intervals    int           // regulate indications received
	MeanAbsLag   float64       // mean |target - delivered| in OSDUs
	TailAbsLag   float64       // mean |lag| over the final third (steady state)
	MaxAbsLag    int           // worst interval
	Dropped      int           // source drops (max-drop budget spent)
	ReportLoss   int           // intervals whose reports never paired
	LoopDuration time.Duration // wall time of the run
}

// RegulateOnce runs one orchestrated stream for the given number of
// intervals and reports how tightly delivery tracked the targets.
func RegulateOnce(intervals int, interval time.Duration) (RegulateResult, error) {
	env, err := NewEnv(EnvConfig{Hosts: 2, Link: DefaultLink()})
	if err != nil {
		return RegulateResult{}, err
	}
	defer env.Close()
	const rate = 200.0
	p, err := env.Connect(1, 2, 0, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(rate*1.5, 512))
	if err != nil {
		return RegulateResult{}, err
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() { _ = media.PumpUnpaced(&media.CBR{Size: 128, FrameRate: rate}, p.Send, stop) }()
	go func() {
		for {
			if _, err := p.Recv.Read(); err != nil {
				return
			}
		}
	}()
	var mu sync.Mutex
	var res RegulateResult
	var absSum int
	var lags []int
	agent, err := env.Agent(2, 1, []hlo.StreamConfig{
		{Desc: p.Desc, Rate: rate, MaxDrop: 5},
	}, hlo.Policy{Interval: interval})
	if err != nil {
		return RegulateResult{}, err
	}
	env.LLOs[2].SetRegulateHandler(func(r orch.Report) {
		mu.Lock()
		defer mu.Unlock()
		res.Intervals++
		lag := int(int64(r.Target) - int64(r.Delivered))
		if lag < 0 {
			lag = -lag
		}
		absSum += lag
		lags = append(lags, lag)
		if lag > res.MaxAbsLag {
			res.MaxAbsLag = lag
		}
		res.Dropped += r.Dropped
		if !r.Complete {
			res.ReportLoss++
		}
	})
	if err := agent.Setup(); err != nil {
		return RegulateResult{}, err
	}
	start := env.Clk.Now()
	if err := agent.Start(); err != nil {
		return RegulateResult{}, err
	}
	env.Clk.Sleep(time.Duration(intervals) * interval)
	agent.Release()
	res.LoopDuration = env.Clk.Since(start)
	mu.Lock()
	defer mu.Unlock()
	if res.Intervals > 0 {
		res.MeanAbsLag = float64(absSum) / float64(res.Intervals)
	}
	// The per-report Dropped sums miss intervals whose source half was
	// lost; the registry's send-side drop counters are authoritative.
	snap := env.Stats.Snapshot()
	regDropped := 0
	for name, v := range snap.Counters {
		if strings.HasSuffix(name, "/send/osdus_dropped") {
			regDropped += int(v)
		}
	}
	if regDropped > res.Dropped {
		res.Dropped = regDropped
	}
	if tail := len(lags) / 3; tail > 0 {
		sum := 0
		for _, l := range lags[len(lags)-tail:] {
			sum += l
		}
		res.TailAbsLag = float64(sum) / float64(tail)
	} else {
		res.TailAbsLag = res.MeanAbsLag
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// A4: drift bounding under skewed clocks.

// DriftResult compares regulated and unregulated inter-stream skew.
type DriftResult struct {
	Duration        time.Duration
	UnregulatedSkew time.Duration // final |progress| difference, free-running
	RegulatedSkew   time.Duration // same sources under the HLO agent
}

// DriftOnce runs two equal-rate streams whose source clocks diverge by
// ±skew (e.g. 0.02 = ±2%), with and without orchestration, for dur.
func DriftOnce(dur time.Duration, skew float64) (DriftResult, error) {
	const rate = 200.0
	sys := clock.System{}
	run := func(regulated bool) (time.Duration, error) {
		fast := clock.NewSkewed(sys, 1+skew, 0)
		slow := clock.NewSkewed(sys, 1-skew, 0)
		env, err := NewEnv(EnvConfig{
			Hosts: 3, Link: DefaultLink(), Clock: sys,
			Clocks: map[core.HostID]clock.Clock{1: fast, 2: slow},
		})
		if err != nil {
			return 0, err
		}
		defer env.Close()
		a, err := env.Connect(1, 3, 0, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(rate*1.5, 256))
		if err != nil {
			return 0, err
		}
		b, err := env.Connect(2, 3, 1, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(rate*1.5, 256))
		if err != nil {
			return 0, err
		}
		sinkA, sinkB := media.NewSink(), media.NewSink()
		stop := make(chan struct{})
		defer close(stop)
		go func() { _ = media.Pump(fast, &media.CBR{Size: 128, FrameRate: rate}, a.Send, stop) }()
		go func() { _ = media.Pump(slow, &media.CBR{Size: 128, FrameRate: rate}, b.Send, stop) }()
		go media.Drain(sys, a.Recv, sinkA, stop)
		go media.Drain(sys, b.Recv, sinkB, stop)

		if regulated {
			agent, err := env.Agent(3, 1, []hlo.StreamConfig{
				{Desc: a.Desc, Rate: rate, MaxDrop: 5},
				{Desc: b.Desc, Rate: rate, MaxDrop: 5},
			}, hlo.Policy{Interval: 100 * time.Millisecond})
			if err != nil {
				return 0, err
			}
			if err := agent.Setup(); err != nil {
				return 0, err
			}
			if err := agent.Prime(false); err != nil {
				return 0, err
			}
			if err := agent.Start(); err != nil {
				return 0, err
			}
			defer agent.Release()
		}
		pair := &media.SyncPair{A: sinkA, B: sinkB, RateA: rate, RateB: rate}
		end := sys.Now().Add(dur)
		for sys.Now().Before(end) {
			sys.Sleep(100 * time.Millisecond)
			pair.Sample()
		}
		return pair.MaxSkew(), nil
	}
	unreg, err := run(false)
	if err != nil {
		return DriftResult{}, err
	}
	reg, err := run(true)
	if err != nil {
		return DriftResult{}, err
	}
	return DriftResult{Duration: dur, UnregulatedSkew: unreg, RegulatedSkew: reg}, nil
}

// ---------------------------------------------------------------------------
// A1: rate-based vs window-based flow control for CM (§7).

// FlowControlResult compares delivery quality under the two disciplines.
type FlowControlResult struct {
	RateJitter    time.Duration // inter-arrival stddev, cm-rate profile
	WindowJitter  time.Duration // inter-arrival stddev, window profile
	RatePaceErr   float64       // |mean inter-arrival - period| / period
	WindowPaceErr float64
	RateEarly     int // frames >1 period ahead of the isochronous schedule
	WindowEarly   int
	RateLate      int // frames >1 period behind schedule
	WindowLate    int
}

// RateVsWindowOnce plays the same stored track over both profiles with an
// UNPACED source application (reading from store as fast as it can), so
// the transport's flow-control discipline is the pacing element — the
// configuration the paper argues about: rate-based smooths delivery to
// the contract rate, while window credit returns in ack-sized clumps and
// delivery turns bursty.
func RateVsWindowOnce(frames uint32) (FlowControlResult, error) {
	const rate = 100.0
	run := func(profile qos.Profile) (media.SinkStats, error) {
		link := DefaultLink()
		link.Loss = bernoulli5{}
		link.Seed = 77
		env, err := NewEnv(EnvConfig{Hosts: 2, Link: link})
		if err != nil {
			return media.SinkStats{}, err
		}
		defer env.Close()
		spec := CMSpec(rate, 512)
		spec.Throughput.Preferred = rate // pin the contract at the media rate
		p, err := env.Connect(1, 2, 0, qos.ClassDetectIndicate, profile, spec)
		if err != nil {
			return media.SinkStats{}, err
		}
		src := &media.CBR{Size: 256, FrameRate: rate, Count: frames}
		sink := media.NewSink()
		sink.NominalRate = rate
		stop := make(chan struct{})
		go func() { _ = media.PumpUnpaced(src, p.Send, stop) }()
		go media.Drain(env.Clk, p.Recv, sink, stop)
		until := env.Clk.Now().Add(30 * time.Second)
		for sink.Received() < int(frames)*9/10 && env.Clk.Now().Before(until) {
			env.Clk.Sleep(2 * time.Millisecond)
		}
		close(stop)
		return sink.Stats(), nil
	}
	rateStats, err := run(qos.ProfileCMRate)
	if err != nil {
		return FlowControlResult{}, err
	}
	windowStats, err := run(qos.ProfileWindow)
	if err != nil {
		return FlowControlResult{}, err
	}
	return FlowControlResult{
		RateJitter:    rateStats.JitterStdDev,
		WindowJitter:  windowStats.JitterStdDev,
		RatePaceErr:   rateStats.PaceError,
		WindowPaceErr: windowStats.PaceError,
		RateEarly:     rateStats.EarlyFrames,
		WindowEarly:   windowStats.EarlyFrames,
		RateLate:      rateStats.LateFrames,
		WindowLate:    windowStats.LateFrames,
	}, nil
}

// bernoulli5 is a 5% loss model invisible to admission control.
type bernoulli5 struct{}

// Drop implements netem.LossModel.
func (bernoulli5) Drop(r *rand.Rand) bool { return r.Float64() < 0.05 }

// ---------------------------------------------------------------------------
// A2: multiplexing onto one VC vs separate orchestrated VCs (§3.6).

// MuxResult compares the two structures for an audio+video pair.
type MuxResult struct {
	// MuxAudioJitter is the audio chunks' inter-arrival stddev when
	// audio and video share one VC sized for the video frames.
	MuxAudioJitter time.Duration
	// SeparateAudioJitter is the same measure on its own orchestrated VC.
	SeparateAudioJitter time.Duration
	// MuxBandwidth and SeparateBandwidth are the reserved byte rates —
	// the "combined QoS sufficient for the most demanding medium" cost.
	MuxBandwidth      float64
	SeparateBandwidth float64
}

// MuxVsSeparateOnce interleaves 25fps×8KB video with 250/s×64B audio on
// one VC (every OSDU paying the video-sized reservation), then runs them
// on separate VCs, and compares the audio's delivery regularity and the
// reserved bandwidth.
func MuxVsSeparateOnce(durFrames int) (MuxResult, error) {
	const (
		videoRate = 25.0
		audioRate = 250.0
		videoSize = 4096
		audioSize = 64
	)
	res := MuxResult{}

	// --- multiplexed: one VC at the combined rate, video-sized OSDUs.
	{
		env, err := NewEnv(EnvConfig{Hosts: 2, Link: DefaultLink()})
		if err != nil {
			return res, err
		}
		muxRate := videoRate + audioRate
		p, err := env.Connect(1, 2, 0, qos.ClassDetectIndicate, qos.ProfileCMRate,
			CMSpec(muxRate, videoSize))
		if err != nil {
			env.Close()
			return res, err
		}
		res.MuxBandwidth = muxRate * float64(videoSize+32)
		audioSink := media.NewSink()
		stop := make(chan struct{})
		sys := env.Clk
		// Interleave: every 10th OSDU is a video frame; the rest audio.
		go func() {
			start := sys.Now()
			var vSeq, aSeq uint32
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				due := start.Add(time.Duration(float64(i) / muxRate * float64(time.Second)))
				if d := due.Sub(sys.Now()); d > 0 {
					sys.Sleep(d)
				}
				var f media.Frame
				if i%11 == 0 {
					f = media.Frame{Seq: vSeq, Data: make([]byte, videoSize-16)}
					vSeq++
				} else {
					f = media.Frame{Seq: aSeq, Event: 1, Data: make([]byte, audioSize)}
					aSeq++
				}
				if _, err := p.Send.Write(f.Marshal(), f.Event); err != nil {
					return
				}
			}
		}()
		go func() {
			for {
				u, err := p.Recv.Read()
				if err != nil {
					return
				}
				f, err := media.UnmarshalFrame(u.Payload)
				if err != nil {
					continue
				}
				if u.Event == 1 { // audio share of the mux
					audioSink.Consume(f, sys.Now())
				}
			}
		}()
		for audioSink.Received() < durFrames {
			sys.Sleep(5 * time.Millisecond)
		}
		close(stop)
		res.MuxAudioJitter = audioSink.Stats().JitterStdDev
		env.Close()
	}

	// --- separate: two right-sized VCs, orchestrated.
	{
		env, err := NewEnv(EnvConfig{Hosts: 2, Link: DefaultLink()})
		if err != nil {
			return res, err
		}
		defer env.Close()
		v, err := env.Connect(1, 2, 0, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(videoRate, videoSize))
		if err != nil {
			return res, err
		}
		a, err := env.Connect(1, 2, 1, qos.ClassDetectIndicate, qos.ProfileCMRate, CMSpec(audioRate, audioSize+32))
		if err != nil {
			return res, err
		}
		res.SeparateBandwidth = videoRate*float64(videoSize+32) + audioRate*float64(audioSize+32+32)
		sys := env.Clk
		audioSink := media.NewSink()
		videoSink := media.NewSink()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			_ = media.Pump(sys, &media.CBR{Size: videoSize - 16, FrameRate: videoRate}, v.Send, stop)
		}()
		go func() {
			_ = media.Pump(sys, &media.CBR{Size: audioSize, FrameRate: audioRate}, a.Send, stop)
		}()
		go media.Drain(sys, v.Recv, videoSink, stop)
		go media.Drain(sys, a.Recv, audioSink, stop)
		agent, err := env.Agent(2, 1, []hlo.StreamConfig{
			{Desc: v.Desc, Rate: videoRate, MaxDrop: 2},
			{Desc: a.Desc, Rate: audioRate, MaxDrop: 5},
		}, hlo.Policy{Interval: 100 * time.Millisecond})
		if err != nil {
			return res, err
		}
		if err := agent.Setup(); err != nil {
			return res, err
		}
		if err := agent.Start(); err != nil {
			return res, err
		}
		defer agent.Release()
		for audioSink.Received() < durFrames {
			sys.Sleep(5 * time.Millisecond)
		}
		res.SeparateAudioJitter = audioSink.Stats().JitterStdDev
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// A3: shared circular buffer vs copy-based data transfer interface (§3.7).

// BufVsCopyResult compares per-OSDU transfer cost. The nanosecond
// figures are wall-clock and shift with the machine and with race
// instrumentation; the allocation and copy counts are the structural
// difference and do not.
type BufVsCopyResult struct {
	SharedNsPerOSDU float64
	CopyNsPerOSDU   float64

	// Heap allocations per OSDU (runtime.MemStats.Mallocs delta).
	SharedAllocsPerOSDU float64
	CopyAllocsPerOSDU   float64

	// CopyBytesPerOSDU is the payload bytes the copy-based interface
	// copies per OSDU: into a fresh buffer at the sender and out into
	// another at the receiver. (The ring copies too, into its slot at Put
	// and out to its scratch buffer at Get; what it saves is the
	// allocations and the per-call location of a buffer.)
	CopyBytesPerOSDU float64
}

// SharedBufVsCopyOnce moves count OSDUs of size bytes producer→consumer
// through (a) the §3.7 shared circular buffer and (b) a conventional
// send()-style interface that allocates and copies per call (the
// channel-of-slices baseline).
func SharedBufVsCopyOnce(count, size int) BufVsCopyResult {
	sys := clock.System{}
	payload := make([]byte, size)

	// (a) shared ring.
	ring := cbuf.New(sys, 16, size)
	done := make(chan struct{})
	m0 := mallocs()
	start := sys.Now()
	go func() {
		defer close(done)
		for i := 0; i < count; i++ {
			if _, err := ring.Get(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		_ = ring.Put(cbuf.OSDU{Seq: core.OSDUSeq(i), Payload: payload})
	}
	<-done
	shared := sys.Since(start)
	sharedAllocs := mallocs() - m0

	// (b) copy-based: each send allocates a fresh buffer and copies —
	// the sendo/recvo "data location + data transfer per call" cost
	// ([Govindan,91] via §3.7).
	ch := make(chan []byte, 16)
	done = make(chan struct{})
	var sendBytes, recvBytes int
	m0 = mallocs()
	start = sys.Now()
	go func() {
		defer close(done)
		for i := 0; i < count; i++ {
			buf := <-ch
			sink := make([]byte, len(buf)) // receiver-side copy-out
			recvBytes += copy(sink, buf)
		}
	}()
	for i := 0; i < count; i++ {
		buf := make([]byte, size) // sender-side copy-in
		sendBytes += copy(buf, payload)
		ch <- buf
	}
	<-done
	copied := sys.Since(start)
	copyAllocs := mallocs() - m0

	n := float64(count)
	return BufVsCopyResult{
		SharedNsPerOSDU:     float64(shared.Nanoseconds()) / n,
		CopyNsPerOSDU:       float64(copied.Nanoseconds()) / n,
		SharedAllocsPerOSDU: float64(sharedAllocs) / n,
		CopyAllocsPerOSDU:   float64(copyAllocs) / n,
		CopyBytesPerOSDU:    float64(sendBytes+recvBytes) / n,
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
