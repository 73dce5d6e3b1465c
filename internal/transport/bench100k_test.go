package transport

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// benchHub is a zero-latency in-process substrate for scale benchmarks:
// Send invokes the destination host's handler synchronously on the
// caller's goroutine. It deliberately has no emulation — the benchmark
// measures the transport core's scheduling and timer machinery, not the
// wire.
type benchHub struct {
	mu       sync.RWMutex
	handlers map[core.HostID]netif.Handler
}

func newBenchHub() *benchHub {
	return &benchHub{handlers: make(map[core.HostID]netif.Handler)}
}

func (h *benchHub) Send(p netif.Packet) error {
	h.mu.RLock()
	fn := h.handlers[p.Dst]
	h.mu.RUnlock()
	if fn != nil {
		fn(p)
	}
	return nil
}

func (h *benchHub) SetHandler(id core.HostID, fn netif.Handler) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[id] = fn
	return nil
}

func (h *benchHub) Route(s, d core.HostID) ([]core.HostID, error) {
	return []core.HostID{s, d}, nil
}
func (h *benchHub) MTU() int { return 0 }
func (h *benchHub) Close()   {}
func (h *benchHub) PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error) {
	return qos.Capability{MaxThroughput: 1e12}, nil
}

// benchVCs returns the concurrent-VC population for Benchmark100kVC:
// 100k by default, overridable with CMTOS_BENCH_VCS for CI smoke runs.
func benchVCs() int {
	if s := os.Getenv("CMTOS_BENCH_VCS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100_000
}

// Benchmark100kVC drives CMTOS_BENCH_VCS (default 100k) concurrent Soft
// VCs with live QoS regulation ticks inside one process: four source
// entities (the VC ID space is 16 bits per entity) each hold an equal
// share of VCs toward one sink entity. Reported metrics:
//
//   - goroutines: steady-state goroutine count with every VC live — the
//     headline number for the sharded-core refactor (O(shards), formerly
//     O(VCs): one send loop at the source plus sample and flow loops at
//     the sink per VC).
//   - setup_s: wall time to establish the whole population (confirmed
//     CR/CC exchanges), which exercises connect-path locking.
//   - ns/op and allocs/op cover one Write plus draining the paired sink
//     ring.
//
// Run with a fixed iteration budget so the expensive population setup
// happens once: go test -bench 100kVC -benchtime 200000x ./internal/transport/
func Benchmark100kVC(b *testing.B) {
	nvc := benchVCs()
	const nsrc = 4
	perSrc := (nvc + nsrc - 1) / nsrc
	if perSrc > 0xFFFF {
		b.Fatalf("%d VCs per source entity overflows the 16-bit VC space", perSrc)
	}

	hub := newBenchHub()
	rm := resv.NewLocal(1e18, hub.Route)
	cfg := Config{
		MaxTPDU:           256,
		RingSlots:         8,
		ConnectTimeout:    10 * time.Second,
		SamplePeriod:      time.Second, // the regulation tick under test
		RTO:               time.Second,
		KeepaliveInterval: 5 * time.Second,
		DispatchWorkers:   16,
		DispatchQueue:     8192,
		Shards:            8, // fixed, so recorded numbers don't depend on host core count
	}

	const sinkHost = core.HostID(9)
	sink, err := NewEntity(sinkHost, sys, hub, rm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	if err := sink.Attach(7, UserCallbacks{}); err != nil {
		b.Fatal(err)
	}

	srcs := make([]*Entity, nsrc)
	for i := range srcs {
		e, err := NewEntity(core.HostID(i+1), sys, hub, rm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		srcs[i] = e
	}

	spec := qos.Spec{
		Throughput:  qos.Tolerance{Preferred: 50, Acceptable: 1},
		MaxOSDUSize: 32,
		Delay:       qos.CeilTolerance{Preferred: 1, Acceptable: 10},
		Jitter:      qos.CeilTolerance{Preferred: 1, Acceptable: 10},
		PER:         qos.CeilTolerance{Preferred: 1, Acceptable: 1},
		BER:         qos.CeilTolerance{Preferred: 1, Acceptable: 1},
		Guarantee:   qos.Soft,
	}

	type pair struct {
		s *SendVC
		r *RecvVC
	}
	pairs := make([]pair, nvc)

	setupStart := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, nsrc)
	for i, e := range srcs {
		share := perSrc
		if rem := nvc - i*perSrc; rem < share {
			share = rem
		}
		if share <= 0 {
			continue
		}
		wg.Add(1)
		go func(idx int, e *Entity, share int) {
			defer wg.Done()
			for j := 0; j < share; j++ {
				s, err := e.Connect(ConnectRequest{
					SrcTSAP: 5,
					Dest:    core.Addr{Host: sinkHost, TSAP: 7},
					Profile: qos.ProfileCMRate,
					Class:   qos.ClassDetectIndicate,
					Spec:    spec,
				})
				if err != nil {
					errCh <- fmt.Errorf("connect %d/%d: %w", idx, j, err)
					return
				}
				r, ok := sink.SinkVC(s.ID())
				if !ok {
					errCh <- fmt.Errorf("sink VC %v missing", s.ID())
					return
				}
				pairs[idx*perSrc+j] = pair{s: s, r: r}
			}
		}(i, e, share)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
	setup := time.Since(setupStart)

	// Let the population settle so the goroutine census sees steady
	// state (every per-VC loop parked, every timer armed).
	time.Sleep(300 * time.Millisecond)
	live := runtime.NumGoroutine()

	// Each op is a full round trip — Write at the source, spin until the
	// OSDU lands at the sink — so ns/op and allocs/op cover the complete
	// packet path (pump scheduling, pacing, encode, decode, delivery),
	// not just the ring enqueue. Rotating over the whole population keeps
	// every write inside the per-VC two-OSDU burst, so pacing never
	// blocks the loop.
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%nvc]
		if _, err := p.s.Write(payload, 0); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, ok, _ := p.r.TryRead(); ok {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("op %d: OSDU not delivered within 10s", i)
			}
			runtime.Gosched()
		}
	}
	b.StopTimer()

	b.ReportMetric(float64(live), "goroutines")
	b.ReportMetric(float64(live)/float64(nvc), "goroutines/vc")
	b.ReportMetric(setup.Seconds(), "setup_s")
	b.ReportMetric(float64(nvc), "vcs")
}
