package udpnet

import (
	"errors"
	"fmt"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/netif/nettest"
	"cmtos/internal/stats"
)

// TestPoolClampOversized pins the oversized-buffer retention bug: a
// pooled wire buffer that some path grew beyond its size class must
// not return to the pool at the larger capacity — otherwise one
// ill-behaved round ratchets the pool's steady-state memory up for the
// substrate's whole lifetime (with GRO-sized buffers, 8× per slot).
// Off-class buffers are dropped for the GC; the pool only ever hands
// out class-sized buffers.
func TestPoolClampOversized(t *testing.T) {
	n, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer n.Close()
	s := n.send[0]

	check := func(round int) {
		g := s.getSendBuf()
		if cap(*g) != n.bufSize || len(*g) != n.bufSize {
			t.Fatalf("round %d: send pool returned off-class buffer: len=%d cap=%d want %d",
				round, len(*g), cap(*g), n.bufSize)
		}
		r := s.getRecvBuf()
		if cap(*r) != n.recvBufSize || len(*r) != n.recvBufSize {
			t.Fatalf("round %d: recv pool returned off-class buffer: len=%d cap=%d want %d",
				round, len(*r), cap(*r), n.recvBufSize)
		}
		s.putWire(g)
		s.putWire(r)
	}

	for round := 0; round < 100; round++ {
		// A buffer grown past every class (as a pre-fix GRO read could)
		// must not be pooled at 1MB.
		big := s.getSendBuf()
		*big = append((*big)[:cap(*big)], make([]byte, 1<<20)...)
		s.putWire(big)
		// A stranger buffer below every class must not be pooled either:
		// handing it out would break the fixed-size marshal contract.
		small := make([]byte, 16)
		s.putWire(&small)
		// A shortened view of a class buffer is fine — capacity intact.
		ok := s.getSendBuf()
		*ok = (*ok)[:1]
		s.putWire(ok)
		check(round)
	}
	// nil is a no-op, not a panic.
	s.putWire(nil)
}

// TestOpenSendCloseChurn pins the Close-vs-sendLoop shutdown races
// across the sharded layout: rounds of open → burst → close, each
// asserting that every enqueued packet reached the wire before any of
// the shard sockets closed (send_errors == 0, sent == enqueued — a
// send-on-closed-socket EBADF/EPIPE would land in send_errors) and
// that no shard goroutine outlives its Network. The empty burst closes
// with idle send loops parked in (or about to park in) their queue
// wait: Close must wake every one of them, so it must return within a
// bound rather than hang on a lost wake-up.
func TestOpenSendCloseChurn(t *testing.T) {
	defer nettest.CheckGoroutines(t)()

	nb, err := New(Config{Local: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer nb.Close()
	_ = nb.SetHandler(2, func(netif.Packet) {})
	peer := nb.Addr().String()

	const rounds = 100
	const closeBound = 2 * time.Second
	batch := make([]netif.Packet, 50)
	for i := range batch {
		batch[i] = netif.Packet{
			// Distinct flows spread the burst across all send shards.
			Src: 1, Dst: 2, Flow: core.VCID(i % 5), Prio: netif.PrioGuaranteed,
			Payload: make([]byte, 256),
		}
	}
	for _, burst := range []int{len(batch), 0} {
		for round := 0; round < rounds; round++ {
			reg := stats.NewRegistry()
			na, err := New(Config{Local: 1, Listen: "127.0.0.1:0", SendShards: 4, RecvShards: 2})
			if err != nil {
				t.Fatalf("burst %d round %d: New: %v", burst, round, err)
			}
			na.SetStats(reg.Scope("churn"))
			if err := na.AddPeer(2, peer); err != nil {
				na.Close()
				t.Fatalf("burst %d round %d: AddPeer: %v", burst, round, err)
			}
			if burst > 0 {
				if err := na.SendBatch(batch[:burst]); err != nil {
					na.Close()
					t.Fatalf("burst %d round %d: SendBatch: %v", burst, round, err)
				}
			}
			// Close immediately: drain-before-close must get every queued
			// packet onto the wire first, across all four send shards.
			closed := make(chan struct{})
			go func() {
				na.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(closeBound):
				t.Fatalf("burst %d round %d: Close still blocked after %v", burst, round, closeBound)
			}
			snap := reg.Snapshot()
			sent := snap.Counters["churn/net/sent_packets"]
			serrs := snap.Counters["churn/net/send_errors"]
			over := snap.Counters["churn/net/send_overflows"]
			if serrs != 0 {
				t.Fatalf("burst %d round %d: %d send errors (send on closed socket?)", burst, round, serrs)
			}
			if over != 0 {
				t.Fatalf("burst %d round %d: %d overflows", burst, round, over)
			}
			if sent != uint64(burst) {
				t.Fatalf("burst %d round %d: sent %d of %d enqueued packets: Close lost the rest", burst, round, sent, burst)
			}
		}
	}
}

// TestGenericWriteBatchAccounting pins the partial-send accounting bug:
// a transient mid-batch error used to leave the failing datagram out of
// every counter, so sent+errors disagreed with what was handed to the
// path. With an injected EAGAIN on every third write, the four counts
// must partition the batch exactly.
func TestGenericWriteBatchAccounting(t *testing.T) {
	n, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer n.Close()
	s := n.send[0]

	calls := 0
	s.writeHook = func(wire []byte, addr netip.AddrPort) error {
		calls++
		if calls%3 == 0 {
			return fmt.Errorf("injected: %w", syscall.EAGAIN)
		}
		return nil
	}
	const N = 10
	const payload = 100
	addr := netip.MustParseAddrPort("127.0.0.1:9")
	pkts := make([]outPkt, N)
	wantBytes := 0
	for i := range pkts {
		buf := s.getSendBuf()
		pkts[i] = outPkt{addr: addr, buf: buf, n: headerSize + payload, size: payload + netif.WireOverhead}
	}
	sent, bytes, ncalls, errs := s.genericWriteBatch(pkts)
	for i := range pkts {
		s.putWire(pkts[i].buf)
	}
	wantErrs := N / 3 // writes 3, 6, 9
	wantSent := N - wantErrs
	wantBytes = wantSent * (headerSize + payload)
	if sent != wantSent || errs != wantErrs {
		t.Fatalf("sent=%d errs=%d, want %d/%d", sent, errs, wantSent, wantErrs)
	}
	if sent+errs != N {
		t.Fatalf("sent+errs = %d: %d packets unaccounted", sent+errs, N-sent-errs)
	}
	if bytes != wantBytes {
		t.Fatalf("bytes=%d, want %d (only successful writes count)", bytes, wantBytes)
	}
	if ncalls != wantSent {
		t.Fatalf("calls=%d, want %d (only syscalls that put data on the wire)", ncalls, wantSent)
	}
	if !errors.Is(fmt.Errorf("injected: %w", syscall.EAGAIN), syscall.EAGAIN) {
		t.Fatal("sanity: injected error must wrap EAGAIN")
	}
}
