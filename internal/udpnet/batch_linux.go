//go:build linux && (amd64 || arm64)

package udpnet

// Batched, offloaded socket I/O for 64-bit Linux.
//
// Three kernel features stack here, probed at runtime and degraded
// independently:
//
//   - sendmmsg(2)/recvmmsg(2) move up to batchLen datagrams per
//     syscall (PR 5). The raw syscalls cooperate with the runtime
//     poller through syscall.RawConn: EAGAIN parks the goroutine on the
//     netpoller instead of spinning.
//   - UDP_SEGMENT (send-side GSO): consecutive same-destination,
//     equal-size datagrams in a batch collapse into one super-datagram
//     — a gather list of wire packets plus a cmsg naming the segment
//     size — that the kernel splits after the protocol stack has run
//     once. A shorter datagram may ride as the run's tail segment.
//   - UDP_GRO (receive-side): the kernel coalesces a burst of
//     equal-size datagrams from one sender into a single buffer and
//     reports the segment size in a cmsg; deliverLoop re-splits it and
//     CRC-checks every segment exactly as a lone datagram.
//
// SO_REUSEPORT binds Config.RecvShards sockets to the advertised port
// so the kernel spreads inbound flows across the receive shards' CPUs.
//
// The mmsghdr layout below matches 64-bit Linux (msghdr is 56 bytes,
// 8-aligned); the build tag keeps 32-bit layouts out. Other platforms
// use the portable one-datagram-per-syscall path in batch_generic.go.

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

const (
	solUDP       = 17                        // SOL_UDP
	udpSegment   = 103                       // UDP_SEGMENT sockopt / cmsg type
	udpGRO       = 104                       // UDP_GRO sockopt / cmsg type
	soReusePort  = 15                        // SO_REUSEPORT (absent from package syscall)
	sendCmsgLen  = syscall.SizeofCmsghdr + 2 // cmsghdr + uint16 gso_size
	sendCmsgSize = (sendCmsgLen + 7) &^ 7    // CMSG_SPACE on 64-bit
	recvCtrlSize = 64                        // room for the UDP_GRO cmsg and slack
)

// platformMaxRecvShards: SO_REUSEPORT lets many sockets share the
// advertised port, so receive sharding is fully available.
const platformMaxRecvShards = maxShards

// listenShared binds a UDP socket, with SO_REUSEPORT set before bind
// when reuseport is true so sibling shards can share the port.
func listenShared(addr string, reuseport bool) (*net.UDPConn, error) {
	lc := net.ListenConfig{}
	if reuseport {
		lc.Control = func(network, address string, c syscall.RawConn) error {
			var serr error
			err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			})
			if err != nil {
				return err
			}
			return serr
		}
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("listen %s: not a UDP socket", addr)
	}
	return uc, nil
}

// probeOffload asks the kernel whether this socket takes
// UDP_SEGMENT/UDP_GRO, enabling GRO as a side effect. Old kernels
// answer ENOPROTOOPT and the substrate quietly runs the plain
// sendmmsg/recvmmsg path — skip, don't fail.
func (s *shard) probeOffload() (gso, gro bool) {
	err := s.rawc.Control(func(fd uintptr) {
		// Setting UDP_SEGMENT to 0 is a no-op on supporting kernels
		// (per-call cmsgs carry the real segment size) and the probe.
		gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	if err != nil {
		return false, false
	}
	return gso, gro
}

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: one msghdr plus the
// kernel-reported byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
	_   [4]byte
}

func sendmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), 0, 0, 0)
	return int(r), e
}

func recvmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)), 0, 0, 0)
	return int(r), e
}

// sockPort reads a sockaddr port field, which the kernel keeps in
// network byte order regardless of host endianness.
func sockPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// setSockPort writes a sockaddr port field in network byte order.
func setSockPort(p *uint16, v uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0], b[1] = byte(v>>8), byte(v)
}

// encodeSockaddr fills sa6 (viewed as the right family) with ap and
// returns the sockaddr length for msg_namelen. v4 sockets take AF_INET
// names; v6 sockets take AF_INET6 names with v4 peers mapped.
func encodeSockaddr(sa6 *syscall.RawSockaddrInet6, ap netip.AddrPort, v4 bool) uint32 {
	if v4 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa6))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		sa.Addr = ap.Addr().Unmap().As4()
		setSockPort(&sa.Port, ap.Port())
		return syscall.SizeofSockaddrInet4
	}
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	sa6.Addr = ap.Addr().As16()
	setSockPort(&sa6.Port, ap.Port())
	return syscall.SizeofSockaddrInet6
}

// decodeSockaddr parses the sockaddr the kernel wrote into a recvmmsg
// name slot. An unknown family yields the zero AddrPort, which the
// caller treats as "no usable source address".
func decodeSockaddr(sa6 *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa6.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa6))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), sockPort(&sa.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr).Unmap(), sockPort(&sa6.Port))
	}
	return netip.AddrPort{}
}

// batchIO is the reusable mmsghdr state for one shard's socket. The
// send-side fields are touched only by the shard's sendLoop and the
// recv-side fields only by its recvLoop, so neither needs a lock. The
// RawConn callbacks are built once and communicate through these
// fields, keeping the steady-state path free of closure allocations.
type batchIO struct {
	// send side: one mmsghdr per GSO run, gathering one iovec per
	// packet; sctrls carries each run's UDP_SEGMENT cmsg.
	shdrs  []mmsghdr
	siovs  []syscall.Iovec
	snames []syscall.RawSockaddrInet6
	sctrls []byte
	ssegs  []int // wire packets carried by each armed mmsghdr
	sn     int   // mmsghdrs armed for this writeBatch call
	soff   int
	sent   int
	sbytes int
	scalls int
	serrs  int
	sfn    func(fd uintptr) bool

	// recv side
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6
	rctrls []byte
	rbufs  []*[]byte
	rgot   int
	rerr   syscall.Errno
	rfn    func(fd uintptr) bool
}

// initBatchIO wires the shard's socket for batched I/O; on failure the
// generic one-datagram-per-syscall path takes over (rawc/bio stay nil).
func (s *shard) initBatchIO() {
	rawc, err := s.conn.SyscallConn()
	if err != nil {
		return
	}
	k := batchLen
	bio := &batchIO{
		shdrs:  make([]mmsghdr, k),
		siovs:  make([]syscall.Iovec, k),
		snames: make([]syscall.RawSockaddrInet6, k),
		sctrls: make([]byte, k*sendCmsgSize),
		ssegs:  make([]int, k),
		rhdrs:  make([]mmsghdr, k),
		riovs:  make([]syscall.Iovec, k),
		rnames: make([]syscall.RawSockaddrInet6, k),
		rctrls: make([]byte, k*recvCtrlSize),
		rbufs:  make([]*[]byte, k),
	}
	bio.sfn = func(fd uintptr) bool {
		for bio.soff < bio.sn {
			m, errno := sendmmsg(fd, bio.shdrs[bio.soff:bio.sn])
			if errno == syscall.EAGAIN {
				return false // park on the netpoller until writable
			}
			if errno != 0 {
				// The error names the first header only: every wire
				// packet it carried is lost, the rest of the batch
				// still gets its chance.
				bio.serrs += bio.ssegs[bio.soff]
				bio.soff++
				continue
			}
			bio.scalls++
			for i, h := range bio.shdrs[bio.soff : bio.soff+m] {
				bio.sbytes += int(h.cnt)
				bio.sent += bio.ssegs[bio.soff+i]
			}
			bio.soff += m
		}
		return true
	}
	bio.rfn = func(fd uintptr) bool {
		for i := range bio.rhdrs {
			bio.riovs[i].Base = &(*bio.rbufs[i])[0]
			bio.riovs[i].Len = uint64(len(*bio.rbufs[i]))
			h := &bio.rhdrs[i].hdr
			h.Iov = &bio.riovs[i]
			h.Iovlen = 1
			h.Name = (*byte)(unsafe.Pointer(&bio.rnames[i]))
			h.Namelen = syscall.SizeofSockaddrInet6
			h.Control = &bio.rctrls[i*recvCtrlSize]
			h.Controllen = recvCtrlSize
			h.Flags = 0
			bio.rhdrs[i].cnt = 0
		}
		m, errno := recvmmsg(fd, bio.rhdrs)
		if errno == syscall.EAGAIN {
			bio.rgot, bio.rerr = 0, 0
			return false // park on the netpoller until readable
		}
		bio.rgot, bio.rerr = m, errno
		return true
	}
	s.rawc = rawc
	s.bio = bio
}

// armSegmentCmsg writes a UDP_SEGMENT cmsg carrying seg into ctrl
// (which must be sendCmsgSize bytes) and returns its msg_controllen.
func armSegmentCmsg(ctrl []byte, seg uint16) uint64 {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(sendCmsgLen)
	*(*uint16)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])) = seg
	return sendCmsgSize
}

// groSegSize walks a recvmsg control buffer for the UDP_GRO cmsg and
// returns the kernel-reported segment size, or 0 when the datagram was
// not coalesced.
func groSegSize(ctrl []byte) int {
	for len(ctrl) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(ctrl) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO && l >= syscall.SizeofCmsghdr+4 {
			return int(*(*int32)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])))
		}
		next := (l + 7) &^ 7
		if next >= len(ctrl) {
			return 0
		}
		ctrl = ctrl[next:]
	}
	return 0
}

// writeBatch transmits one run of remote-bound datagrams. With GSO,
// consecutive same-destination, equal-size packets collapse into one
// super-datagram (a shorter packet may close a run as its tail
// segment); without it, each packet is its own mmsghdr. Either way the
// whole batch goes to the kernel in as few sendmmsg calls as the
// socket accepts. Accounting is exact: every wire packet lands in
// sent/bytes or in errs, and calls counts successful syscalls only.
func (s *shard) writeBatch(pkts []outPkt) (sent, bytes, calls, errs int) {
	bio := s.bio
	if bio == nil {
		return s.genericWriteBatch(pkts)
	}
	nh := 0 // mmsghdrs armed
	iv := 0 // iovecs consumed
	gsoBursts := 0
	for i := 0; i < len(pkts); {
		// Find the GSO run [i, j): same destination, every segment the
		// size of the first, except a shorter tail which ends the run.
		j := i + 1
		segSize := pkts[i].n
		total := segSize
		if s.gso {
			for j < len(pkts) && j-i < maxSegments &&
				pkts[j].addr == pkts[i].addr &&
				pkts[j].n <= segSize && total+pkts[j].n <= maxGSOBytes {
				total += pkts[j].n
				j++
				if pkts[j-1].n < segSize {
					break // shorter tail segment closes the run
				}
			}
		}
		h := &bio.shdrs[nh].hdr
		for k := i; k < j; k++ {
			wire := (*pkts[k].buf)[:pkts[k].n]
			bio.siovs[iv+k-i].Base = &wire[0]
			bio.siovs[iv+k-i].Len = uint64(len(wire))
		}
		h.Iov = &bio.siovs[iv]
		h.Iovlen = uint64(j - i) // 64-bit Linux msghdr (see build tag)
		h.Name = (*byte)(unsafe.Pointer(&bio.snames[nh]))
		h.Namelen = encodeSockaddr(&bio.snames[nh], pkts[i].addr, s.net.v4)
		if j-i > 1 {
			ctrl := bio.sctrls[nh*sendCmsgSize : (nh+1)*sendCmsgSize]
			h.Control = &ctrl[0]
			h.SetControllen(int(armSegmentCmsg(ctrl, uint16(segSize))))
			gsoBursts++
		} else {
			h.Control = nil
			h.Controllen = 0
		}
		bio.shdrs[nh].cnt = 0
		bio.ssegs[nh] = j - i
		iv += j - i
		nh++
		i = j
	}
	bio.sn = nh
	bio.soff, bio.sent, bio.sbytes, bio.scalls, bio.serrs = 0, 0, 0, 0, 0
	_ = s.rawc.Write(bio.sfn) // a close mid-send just truncates the batch
	runtime.KeepAlive(pkts)
	if gsoBursts > 0 {
		s.net.stats().gsoSupers.Add(uint64(gsoBursts))
	}
	return bio.sent, bio.sbytes, bio.scalls, bio.serrs
}

// runRecvLoop harvests datagram batches until the socket closes,
// passing each buffer — with the kernel's GRO segment size, when the
// datagram is a coalesced super-datagram — to the delivery pipeline.
func (s *shard) runRecvLoop() {
	bio := s.bio
	if bio == nil {
		s.genericRecvLoop()
		return
	}
	for i := range bio.rbufs {
		bio.rbufs[i] = s.getRecvBuf()
	}
	for {
		if err := s.rawc.Read(bio.rfn); err != nil || bio.rerr != 0 {
			return // socket closed
		}
		si := s.net.stats()
		si.recvBatches.Inc()
		for i := 0; i < bio.rgot; i++ {
			nr := int(bio.rhdrs[i].cnt)
			from := decodeSockaddr(&bio.rnames[i])
			buf := bio.rbufs[i]
			bio.rbufs[i] = s.getRecvBuf() // replace before handing ownership on
			if bio.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
				si.hdrErrors.Inc() // datagram exceeded the receive buffer
				s.putWire(buf)
				continue
			}
			seg := 0
			if cl := int(bio.rhdrs[i].hdr.Controllen); cl > 0 && cl <= recvCtrlSize {
				seg = groSegSize(bio.rctrls[i*recvCtrlSize : i*recvCtrlSize+cl])
			}
			if seg > 0 && nr > seg {
				si.groSupers.Inc()
			}
			s.ingest(buf, nr, seg, from)
		}
	}
}
