package transport

import (
	"fmt"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// Connect performs T-Connect.request for the conventional case where the
// caller's host is the source (initiator == source). It runs the full
// confirmed exchange of Table 1: admission along the route, option
// negotiation with the destination user, and reservation of the agreed
// bandwidth. On success the returned SendVC is ready for Write.
func (e *Entity) Connect(req ConnectRequest) (*SendVC, error) {
	return e.connect(req, nil)
}

// connect is the initiator side of Connect and ConnectMulticast: the
// caller's host is the source, and members, when non-nil, replaces
// req.Dest with the sinks of a multicast VC.
func (e *Entity) connect(req ConnectRequest, members []core.Addr) (*SendVC, error) {
	src := core.Addr{Host: e.host, TSAP: req.SrcTSAP}
	tup := core.ConnectTuple{Initiator: src, Source: src, Dest: req.Dest}
	e.trace("initiator", core.TConnectRequest)
	s, err := e.connectAsSource(tup, members, req.Profile, req.Class, req.Spec, req.StartSeq)
	if err != nil {
		e.trace("initiator", core.TDisconnectIndication)
		return nil, err
	}
	e.trace("initiator", core.TConnectConfirm)
	return s, nil
}

// connectAsSource runs establishment from the source entity toward
// tup.Dest or, when members is non-nil, toward every member of a
// multicast VC under one VC id (the tuple's Dest is then zero). It
// negotiates the weakest contract across the paths, reserves each
// branch, completes the CR/CC exchange with each sink, and undoes all of
// it if any step fails.
func (e *Entity) connectAsSource(tup core.ConnectTuple, members []core.Addr, profile qos.Profile, class qos.Class, spec qos.Spec, startSeq core.OSDUSeq) (*SendVC, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dests := members
	if members == nil {
		one := [1]core.Addr{tup.Dest}
		dests = one[:]
	} else {
		tup.Dest = core.Addr{}
	}
	var contract qos.Contract
	for _, d := range dests {
		pc, err := e.capabilityFor(tup.Source.Host, d.Host, spec)
		if err != nil {
			return nil, &RejectError{Reason: core.ReasonNoSuchTSAP, Detail: err.Error()}
		}
		c, err := qos.Negotiate(spec, pc)
		if err != nil {
			return nil, &RejectError{Reason: core.ReasonQoSUnattainable, Detail: err.Error()}
		}
		contract = weakest(contract, c)
	}

	// Reserve each branch (hard and soft guarantees reserve; best effort
	// does not). The first branch's reservation and route are the VC's
	// own; a multicast VC keeps the others in resvExtra.
	var resvID resv.ID
	var path []core.HostID
	var extra []resv.ID
	var vc core.VCID
	confirmed := 0
	fail := func(err error) (*SendVC, error) {
		if resvID != 0 {
			_ = e.rm.Release(resvID)
		}
		for _, id := range extra {
			_ = e.rm.Release(id)
		}
		for _, d := range dests[:confirmed] {
			e.sendCtl(d.Host, &pdu.Control{
				Kind: pdu.KindDiscReq, VC: vc, Tuple: tup, Reason: rejectReason(err),
			})
		}
		return nil, err
	}
	if contract.Guarantee != qos.BestEffort {
		for i, d := range dests {
			id, p, err := e.rm.Reserve(tup.Source.Host, d.Host, e.bytesPerSecond(contract))
			if err != nil {
				return fail(&RejectError{Reason: core.ReasonNoResources, Detail: err.Error()})
			}
			if i == 0 {
				resvID, path = id, p
			} else {
				extra = append(extra, id)
			}
		}
	}

	// Confirmed establishment with each sink; any sink's counter-offer
	// weakens the final contract further.
	vc = e.allocVC()
	var final qos.Contract
	for _, d := range dests {
		branch := tup
		branch.Dest = d
		reply, err := e.request(d.Host, &pdu.Control{
			Kind: pdu.KindConnReq, VC: vc, Tuple: branch,
			Profile: profile, Class: class, Spec: spec, Contract: contract,
			Seq: uint64(startSeq),
		})
		if err != nil {
			return fail(err)
		}
		if reply.Kind == pdu.KindConnRej {
			return fail(&RejectError{Reason: reply.Reason})
		}
		confirmed++
		final = weakest(final, reply.Contract)
	}

	// A sink may have weakened the offer; shrink the reservations to the
	// final contract.
	if final.Throughput < contract.Throughput {
		if resvID != 0 {
			_ = e.rm.Adjust(resvID, e.bytesPerSecond(final))
		}
		for _, id := range extra {
			_ = e.rm.Adjust(id, e.bytesPerSecond(final))
		}
	}

	s := newSendVC(e, vc, tup, profile, class, final, resvID)
	s.path = path
	if members != nil {
		s.members = append([]core.Addr(nil), members...)
		s.resvExtra = extra
	}
	if startSeq > 0 {
		// Mid-stream join: numbering starts at the splice head, and the
		// transmit watermark must not look behind it.
		s.nextSeq = startSeq
		s.sentSeq.Store(uint64(startSeq))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.teardown() // releases the reservations
		resvID, extra = 0, nil
		return fail(ErrClosed)
	}
	e.sends[vc] = s
	e.peerAddLocked(s.tuple.Dest.Host, vc)
	e.mu.Unlock()
	s.start()

	if u, ok := e.user(tup.Source.TSAP); ok && u.OnSendReady != nil {
		u.OnSendReady(s)
	}
	return s, nil
}

// weakest combines two contracts into the weakest of each parameter: the
// contract every one of several paths or sinks can honour. The zero
// contract is the identity, so a fold over N contracts can start from it.
func weakest(a, b qos.Contract) qos.Contract {
	if a == (qos.Contract{}) {
		return b
	}
	a.Throughput = min(a.Throughput, b.Throughput)
	a.MaxOSDUSize = max(a.MaxOSDUSize, b.MaxOSDUSize)
	a.Delay = max(a.Delay, b.Delay)
	a.Jitter = max(a.Jitter, b.Jitter)
	a.PER = max(a.PER, b.PER)
	a.BER = max(a.BER, b.BER)
	return a
}

// rejectReason is the disconnect reason an establishment error carries:
// the peer's or admission's reason for a RejectError, a network failure
// otherwise.
func rejectReason(err error) core.Reason {
	if rej, ok := err.(*RejectError); ok {
		return rej.Reason
	}
	return core.ReasonNetworkFailure
}

// handleConnReq is the destination entity's side of establishment: issue
// T-Connect.indication to the addressed TSAP's user, counter-negotiate,
// install the receive side, and confirm or reject.
func (e *Entity) handleConnReq(from core.HostID, c *pdu.Control) {
	rej := func(reason core.Reason) {
		e.reply(from, &pdu.Control{
			Kind: pdu.KindConnRej, VC: c.VC, Tuple: c.Tuple,
			Reason: reason, Token: c.Token,
		})
	}
	u, ok := e.user(c.Tuple.Dest.TSAP)
	if !ok {
		rej(core.ReasonNoSuchTSAP)
		return
	}
	e.trace("dest", core.TConnectIndication)
	final := c.Contract
	if u.OnConnectIndication != nil {
		accept, responder := u.OnConnectIndication(c.Tuple, RoleSink, c.Spec)
		if !accept {
			e.trace("dest", core.TDisconnectRequest)
			rej(core.ReasonUserRejected)
			return
		}
		if responder.MaxOSDUSize > 0 { // a zero responder spec means "as offered"
			weakened, err := qos.Weaken(c.Contract, responder)
			if err != nil {
				rej(core.ReasonQoSUnattainable)
				return
			}
			final = weakened
		}
	}
	e.trace("dest", core.TConnectResponse)

	r := newRecvVC(e, c.VC, c.Tuple, c.Profile, c.Class, final)
	if c.Seq > 0 {
		r.initStart(core.OSDUSeq(c.Seq))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		r.teardown()
		rej(core.ReasonNetworkFailure)
		return
	}
	if existing, dup := e.recvs[c.VC]; dup {
		// Retransmitted CR: the VC already exists; re-confirm
		// idempotently with the contract in force.
		e.mu.Unlock()
		r.teardown()
		e.reply(from, &pdu.Control{
			Kind: pdu.KindConnConf, VC: c.VC, Tuple: c.Tuple,
			Contract: existing.Contract(), Token: c.Token,
		})
		return
	}
	e.recvs[c.VC] = r
	e.peerAddLocked(r.tuple.Source.Host, c.VC)
	e.mu.Unlock()
	r.start()

	e.reply(from, &pdu.Control{
		Kind: pdu.KindConnConf, VC: c.VC, Tuple: c.Tuple, Contract: final,
		Token: c.Token,
	})
	if u.OnRecvReady != nil {
		u.OnRecvReady(r)
	}
}

// ConnectRemote performs the remote connection facility of §3.5 and Figs.
// 2-3: the caller (initiator) asks the source entity to establish a VC
// from tup.Source to tup.Dest. The exchange follows Fig. 3 exactly; the
// initiator receives only the outcome — the data handles surface at the
// source and sink through OnSendReady/OnRecvReady.
func (e *Entity) ConnectRemote(tup core.ConnectTuple, profile qos.Profile, class qos.Class, spec qos.Spec) (core.VCID, qos.Contract, error) {
	if tup.Initiator.Host != e.host {
		return 0, qos.Contract{}, fmt.Errorf("transport: initiator %v is not this host", tup.Initiator)
	}
	if err := spec.Validate(); err != nil {
		return 0, qos.Contract{}, err
	}
	e.trace("initiator", core.TConnectRequest)
	reply, err := e.request(tup.Source.Host, &pdu.Control{
		Kind: pdu.KindRemoteConnReq, Tuple: tup,
		Profile: profile, Class: class, Spec: spec,
	})
	if err != nil {
		return 0, qos.Contract{}, err
	}
	if reply.Reason != core.ReasonNone {
		e.trace("initiator", core.TDisconnectIndication)
		return 0, qos.Contract{}, &RejectError{Reason: reply.Reason}
	}
	e.trace("initiator", core.TConnectConfirm)
	return reply.VC, reply.Contract, nil
}

// handleRemoteConnReq is the source entity's side of a remote connect:
// deliver T-Connect.indication to the source TSAP's user, then (on
// acceptance) run conventional establishment toward the destination and
// relay the outcome to the initiator.
func (e *Entity) handleRemoteConnReq(from core.HostID, c *pdu.Control) {
	key := servedKey{host: from, tok: c.Token}
	if cached, dup := e.servedBegin(key); dup {
		if cached != nil {
			e.reply(from, cached) // retransmitted request: replay result
		}
		return
	}
	result := func(vc core.VCID, contract qos.Contract, reason core.Reason) {
		res := &pdu.Control{
			Kind: pdu.KindRemoteConnResult, VC: vc, Tuple: c.Tuple,
			Contract: contract, Reason: reason, Token: c.Token,
		}
		e.servedPut(key, res)
		e.reply(from, res)
	}
	u, ok := e.user(c.Tuple.Source.TSAP)
	if !ok {
		result(0, qos.Contract{}, core.ReasonNoSuchTSAP)
		return
	}
	e.trace("source", core.TConnectIndication)
	spec := c.Spec
	if u.OnConnectIndication != nil {
		accept, responder := u.OnConnectIndication(c.Tuple, RoleSource, c.Spec)
		if !accept {
			e.trace("source", core.TDisconnectRequest)
			result(0, qos.Contract{}, core.ReasonUserRejected)
			return
		}
		if responder.MaxOSDUSize > 0 {
			spec = responder
		}
	}
	e.trace("source", core.TConnectResponse)
	e.trace("source", core.TConnectRequest)
	s, err := e.connectAsSource(c.Tuple, nil, c.Profile, c.Class, spec, 0)
	if err != nil {
		result(0, qos.Contract{}, rejectReason(err))
		return
	}
	e.trace("source", core.TConnectConfirm)
	result(s.ID(), s.Contract(), core.ReasonNone)
}

// Disconnect releases a VC owned (as source) by this host, notifying the
// sink. It implements T-Disconnect.request (Table 1).
func (e *Entity) Disconnect(vc core.VCID, reason core.Reason) error {
	s, ok := e.SourceVC(vc)
	if !ok {
		return &RejectError{Reason: core.ReasonNoSuchVC}
	}
	e.trace("source", core.TDisconnectRequest)
	s.teardown()
	dr := &pdu.Control{Kind: pdu.KindDiscReq, VC: vc, Tuple: s.tuple, Reason: reason}
	if s.members == nil {
		e.sendCtl(s.tuple.Dest.Host, dr)
	}
	for _, m := range s.members {
		e.sendCtl(m.Host, dr)
	}
	return nil
}

// DisconnectRemote asks the VC's source entity to release it — the remote
// release of §4.1.1 ("it is also possible for an initiator to request
// that a VC be remotely released").
func (e *Entity) DisconnectRemote(srcHost core.HostID, vc core.VCID, reason core.Reason) error {
	e.trace("initiator", core.TDisconnectRequest)
	e.sendCtl(srcHost, &pdu.Control{
		Kind: pdu.KindRemoteDiscReq, VC: vc, Reason: reason,
	})
	return nil
}

// handleRemoteDiscReq is the source entity's side of a remote release.
func (e *Entity) handleRemoteDiscReq(c *pdu.Control) {
	if _, ok := e.SourceVC(c.VC); !ok {
		return
	}
	e.trace("source", core.TDisconnectIndication)
	reason := c.Reason
	if reason == core.ReasonNone {
		reason = core.ReasonUserInitiated
	}
	_ = e.Disconnect(c.VC, reason)
}
