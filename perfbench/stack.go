package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
	"cmtos/internal/stats"
	"cmtos/internal/transport"
	"cmtos/internal/udpnet"
)

// stack is one set-up of the system under test, wired the way the
// shipped tools wire it: a stats.Registry in every entity and substrate,
// default transport and substrate configuration otherwise.
type stack struct {
	reg  *stats.Registry
	ents map[core.HostID]*transport.Entity
	udp  []*udpnet.Network
	em   *netem.Network
	tr   *tracer // nil on untraced runs
	gen  uint32  // this stack's number in the trace

	closing sync.Once
	down    atomic.Bool // close has begun
}

func newStack(tr *tracer) *stack {
	s := &stack{reg: stats.NewRegistry(), ents: make(map[core.HostID]*transport.Entity), tr: tr}
	if tr != nil {
		s.gen = tr.gens.Add(1)
	}
	return s
}

// newUDPStack builds hosts 1..n, each with its own loopback UDP socket
// set, advisory admission and transport entity, all peered.
//
// Host id listens on its own loopback address, 127.0.0.<id>, as separate
// machines would. On one address a host's port-0 bind with SO_REUSEPORT
// can be given the port another host of the stack already holds (Linux
// does not count a same-user reuseport group as taken: about once in 28k
// binds with the default port range); the two then share one receive group and take each other's
// packets.
func newUDPStack(n int, tr *tracer) (*stack, error) {
	s := newStack(tr)
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		nw, err := udpnet.New(udpnet.Config{Local: id, Listen: fmt.Sprintf("127.0.0.%d:0", uint32(id))})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("udpnet host %d: %w", id, err)
		}
		s.udp = append(s.udp, nw)
		nw.SetStats(s.reg.Scope(fmt.Sprintf("host/%d", uint32(id))))
		rm := resv.NewLocal(nw.Capacity(), nw.Route)
		nw.SetAvailable(rm.Available)
		if err := s.addEntity(id, nw, rm); err != nil {
			s.close()
			return nil, err
		}
	}
	for i, a := range s.udp {
		for j, b := range s.udp {
			if i != j {
				if err := a.AddPeer(core.HostID(j+1), b.Addr().String()); err != nil {
					s.close()
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// newNetemStack builds hosts 1..n on one in-process emulated network
// whose links all share cfg; link seeds derive from seed.
func newNetemStack(n int, links [][2]core.HostID, cfg netem.LinkConfig, seed uint64, tr *tracer) (*stack, error) {
	s := newStack(tr)
	nw := netem.New(clock.System{})
	nw.SetStats(s.reg.Scope(""))
	s.em = nw
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		if err := nw.AddHost(id, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	g := seed
	for _, l := range links {
		c := cfg
		c.Seed = int64(splitmix(&g) >> 1)
		if err := nw.AddLink(l[0], l[1], c); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := nw.Start(); err != nil {
		s.close()
		return nil, err
	}
	rm := resv.New(nw)
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		if err := s.addEntity(id, nw, rm); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) addEntity(id core.HostID, nw netif.Network, rm resv.Reserver) error {
	if s.tr != nil {
		nw = &netShim{Network: nw, t: s.tr, gen: s.gen}
		rm = &resvShim{Reserver: rm, t: s.tr}
	}
	e, err := transport.NewEntity(id, clock.System{}, nw, rm, transport.Config{Stats: s.reg})
	if err != nil {
		return fmt.Errorf("entity %d: %w", id, err)
	}
	s.ents[id] = e
	return nil
}

// connect opens a VC and times the call for the trace.
func (s *stack) connect(from core.HostID, req transport.ConnectRequest) (*transport.SendVC, error) {
	t0 := time.Now()
	vc, err := s.ents[from].Connect(req)
	if s.tr != nil {
		s.tr.timed(&s.tr.conn, time.Since(t0))
	}
	return vc, err
}

// disconnect closes a VC and times the call for the trace.
func (s *stack) disconnect(from core.HostID, vc core.VCID) error {
	t0 := time.Now()
	err := s.ents[from].Disconnect(vc, core.ReasonNone)
	if s.tr != nil {
		s.tr.timed(&s.tr.disc, time.Since(t0))
	}
	return err
}

// closeLimit bounds one udpnet substrate's Close. udpnet.Close sets its
// closed flag and wakes the send loops without holding their queue lock,
// so a send loop that has just found the flag unset can miss the wake-up
// and wait for good, and Close with it (twice in about 90 data runs on a 2-vCPU VM).
// Past the limit the hang is counted and its goroutines dumped, and the
// substrate is left behind: a set-up is closed only after its figures
// were taken and its outputs checked.
const closeLimit = 2 * time.Second

// closeHangs counts the substrates whose Close did not return in time.
var closeHangs atomic.Int64

// close shuts the stack down; a Write or Read blocked on one of its VCs
// returns an error. It may be called more than once, from any goroutine.
func (s *stack) close() {
	s.down.Store(true)
	s.closing.Do(func() {
		for _, e := range s.ents {
			e.Close()
		}
		for _, nw := range s.udp {
			closed := make(chan struct{})
			go func() {
				nw.Close()
				close(closed)
			}()
			t := time.NewTimer(closeLimit)
			select {
			case <-closed:
			case <-t.C:
				closeHangs.Add(1)
				dumpGoroutines(fmt.Sprintf("udpnet.Close has not returned after %v", closeLimit))
			}
			t.Stop()
		}
		if s.em != nil {
			s.em.Close()
		}
	})
}

// tally is one reading of a stack's registry.
type tally struct {
	counters    map[string]uint64
	instruments int
}

func (s *stack) tally() tally {
	sn := s.reg.Snapshot()
	return tally{sn.Counters, len(sn.Counters) + len(sn.Gauges) + len(sn.Histograms)}
}

// sum adds up every counter whose name ends in one of the suffixes.
func (t tally) sum(suffixes ...string) float64 {
	var n uint64
	for name, v := range t.counters {
		for _, suf := range suffixes {
			if strings.HasSuffix(name, suf) {
				n += v
			}
		}
	}
	return float64(n)
}

// addTo adds the registry's per-layer counters to layer, where the
// counts of a run's stacks add up.
func (t tally) addTo(layer map[string]float64) {
	layer["stats.instruments"] = float64(t.instruments)
	layer["transport.osdus_lost"] += t.sum("/osdus_lost")
	layer["transport.handoff_drops"] += t.sum("/handoff_drops")
	layer["udpnet.drops"] += t.sum("net/send_overflows", "net/recv_overruns", "net/send_errors")
}

// queueDrops sums drop-tail overflows over the emulated links.
func (s *stack) queueDrops(links [][2]core.HostID) int {
	n := 0
	for _, l := range links {
		for _, d := range [][2]core.HostID{l, {l[1], l[0]}} {
			if st, err := s.em.Stats(d[0], d[1]); err == nil {
				n += st.Overflows
			}
		}
	}
	return n
}

// cmSpec is the QoS request every workload makes: a throughput window
// around rate with loose delay, jitter and error ceilings, so admission,
// not the tolerances, decides the contract.
func cmSpec(rate float64, size int) qos.Spec {
	return qos.Spec{
		Throughput:  qos.Tolerance{Preferred: rate, Acceptable: rate / 10},
		MaxOSDUSize: size,
		Delay:       qos.CeilTolerance{Preferred: 0.001, Acceptable: 2},
		Jitter:      qos.CeilTolerance{Preferred: 0.001, Acceptable: 1},
		PER:         qos.CeilTolerance{Preferred: 0, Acceptable: 0.9},
		BER:         qos.CeilTolerance{Preferred: 0, Acceptable: 1e-2},
		Guarantee:   qos.Soft,
	}
}
