package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/qos"
)

// attachSinks attaches a sink user at tsap on each host and returns the
// destinations plus the channel their receive handles arrive on. Each
// sink's OnDisconnect reports its host on disc.
func attachSinks(t *testing.T, r *rig, hosts []core.HostID, tsap core.TSAP, disc chan<- core.HostID) ([]core.Addr, <-chan *RecvVC) {
	t.Helper()
	recvCh := make(chan *RecvVC, len(hosts))
	var dests []core.Addr
	for _, h := range hosts {
		if err := r.ent[h].Attach(tsap, UserCallbacks{
			OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
			OnDisconnect: func(core.VCID, core.Reason, bool) {
				if disc != nil {
					disc <- h
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		dests = append(dests, core.Addr{Host: h, TSAP: tsap})
	}
	return dests, recvCh
}

// recvFrom waits for one receive handle per host and indexes them by host.
func recvFrom(t *testing.T, recvCh <-chan *RecvVC, n int) map[core.HostID]*RecvVC {
	t.Helper()
	got := make(map[core.HostID]*RecvVC, n)
	for len(got) < n {
		select {
		case rv := <-recvCh:
			got[rv.Tuple().Dest.Host] = rv
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d sink handles arrived", len(got), n)
		}
	}
	return got
}

// TestMulticastPartitionCutsOneMember runs a multicast VC through the
// fault injector with the source→member-3 direction partitioned: each
// member's copy of a TPDU is an ordinary packet to that member, so the
// partition must cut member 3 off while member 2 still reads every OSDU
// in order.
func TestMulticastPartitionCutsOneMember(t *testing.T) {
	fr := newFaultRig(t, 3, Config{KeepaliveInterval: -1})
	dests, recvCh := attachSinks(t, fr.rig, []core.HostID{2, 3}, 40, nil)
	s, err := fr.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	sinks := recvFrom(t, recvCh, 2)
	fr.fault.Partition(1, 3)

	// Member 3 is drained as well, so that data reaching it would show
	// up as reads rather than as its backpressure stalling the source.
	var leaked atomic.Int64
	go func() {
		for {
			if _, err := sinks[3].Read(); err != nil {
				return
			}
			leaked.Add(1)
		}
	}()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("mc-%02d", i)), 0); err != nil {
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			u, err := sinks[2].Read()
			if err != nil {
				done <- err
				return
			}
			if want := fmt.Sprintf("mc-%02d", i); u.Seq != core.OSDUSeq(i) || string(u.Payload) != want {
				done <- fmt.Errorf("member 2: seq %d payload %q, want %d %q", u.Seq, u.Payload, i, want)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member 2 stalled")
	}
	// Member 2 has everything; anything member 3 were going to get
	// would be at most a link delay behind.
	time.Sleep(50 * time.Millisecond)
	if got := leaked.Load(); got != 0 {
		t.Fatalf("partitioned member 3 read %d OSDUs", got)
	}
	if got := fr.reg.Counter("fault/partitioned").Value(); got == 0 {
		t.Fatal("fault/partitioned = 0: the partition never saw a multicast packet")
	}
}

// TestMulticastTeardownReachesEveryMember closes a 3-member VC and
// requires the disconnect to reach every member: each sink's Read fails
// and each member's OnDisconnect fires within a bound, and every branch
// reservation is released.
func TestMulticastTeardownReachesEveryMember(t *testing.T) {
	r := newRig(t, 4, fastLink(), Config{})
	members := []core.HostID{2, 3, 4}
	disc := make(chan core.HostID, len(members))
	dests, recvCh := attachSinks(t, r, members, 40, disc)
	s, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	sinks := recvFrom(t, recvCh, len(members))
	if r.rm.Count() != len(members) {
		t.Fatalf("reservations = %d, want one per branch (%d)", r.rm.Count(), len(members))
	}

	if err := s.Close(core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan core.HostID, len(members))
	for h, rv := range sinks {
		go func(h core.HostID, rv *RecvVC) {
			if _, err := rv.Read(); err != nil {
				readErr <- h
			}
		}(h, rv)
	}
	const bound = 2 * time.Second
	deadline := time.After(bound)
	gotDisc := make(map[core.HostID]bool)
	gotRead := make(map[core.HostID]bool)
	for len(gotDisc) < len(members) || len(gotRead) < len(members) {
		select {
		case h := <-disc:
			gotDisc[h] = true
		case h := <-readErr:
			gotRead[h] = true
		case <-deadline:
			t.Fatalf("after %v: OnDisconnect at %v, Read error at %v; want all of %v",
				bound, gotDisc, gotRead, members)
		}
	}
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked: %d", r.rm.Count())
	}
}

// TestMulticastRejectionUndoesConfirmedMembers has the last member refuse
// the connection: the members that already confirmed must see their VC
// disconnected, and no branch reservation may survive.
func TestMulticastRejectionUndoesConfirmedMembers(t *testing.T) {
	r := newRig(t, 4, fastLink(), Config{})
	disc := make(chan core.HostID, 2)
	dests, _ := attachSinks(t, r, []core.HostID{2, 3}, 40, disc)
	_ = r.ent[4].Attach(41, UserCallbacks{
		OnConnectIndication: func(core.ConnectTuple, Role, qos.Spec) (bool, qos.Spec) {
			return false, qos.Spec{}
		},
	})
	_, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, append(dests, core.Addr{Host: 4, TSAP: 41}))
	if rej, ok := err.(*RejectError); !ok || rej.Reason != core.ReasonUserRejected {
		t.Fatalf("err = %v, want user-rejected", err)
	}
	got := make(map[core.HostID]bool)
	deadline := time.After(2 * time.Second)
	for len(got) < 2 {
		select {
		case h := <-disc:
			got[h] = true
		case <-deadline:
			t.Fatalf("OnDisconnect at %v, want members 2 and 3", got)
		}
	}
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked: %d", r.rm.Count())
	}
}
