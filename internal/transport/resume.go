package transport

import (
	"time"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// VC resurrection: the failure-path counterpart of the paper's transparent
// re-establishment (§3.3). When a VC dies with ReasonNetworkFailure the
// session layer re-runs connect + admission with a KindResumeReq carrying
// the original VC identity. The sink seals whatever remains of the old
// incarnation — fixing an exact delivery watermark — and advertises it in
// KindResumeConf.Seq; the source rebuilds the VC under the same ID with its
// OSDU and TPDU numbering carried over, and the session layer replays every
// retained OSDU from the watermark, so the application-observed sequence
// crosses the gap with no loss and no duplication.

// SetVCDownHandler installs a hook called after a source VC is torn down by
// a network failure (peer death or a peer-initiated network-failure
// disconnect). The session layer uses it to trigger recovery. The hook runs
// on transport goroutines and must not block.
func (e *Entity) SetVCDownHandler(fn func(s *SendVC, reason core.Reason)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.vcDownFn = fn
}

// notifyVCDown reports a failed source VC through the installed hook.
func (e *Entity) notifyVCDown(s *SendVC, reason core.Reason) {
	e.mu.Lock()
	fn := e.vcDownFn
	e.mu.Unlock()
	if fn != nil {
		fn(s, reason)
	}
}

// resumableKey is one tombstone-queue slot.
type resumableKey struct {
	vc core.VCID
	at time.Time
}

// noteResumable records a torn-down sink VC so a later resume can still
// recover its delivery watermark. Sealed rings are never recorded: sealing
// happens exactly when a resume consumes the watermark, so a sealed VC's
// state has already been handed to its successor.
func (e *Entity) noteResumable(r *RecvVC) {
	if r.ring.Sealed() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if _, dup := e.resumable[r.id]; !dup {
		e.resumable[r.id] = r
		e.resumableQ = append(e.resumableQ, resumableKey{vc: r.id, at: e.clk.Now()})
		e.evictResumableLocked(e.clk.Now())
	}
}

// evictResumableLocked expires tombstones past the resume window and
// enforces the size cap oldest-first; caller holds mu.
func (e *Entity) evictResumableLocked(now time.Time) {
	const resumableCap = 256
	i := 0
	for i < len(e.resumableQ) {
		k := e.resumableQ[i]
		if cur, ok := e.resumable[k.vc]; !ok || cur.ring.Sealed() {
			i++ // already consumed; just drop the queue slot
			continue
		}
		if now.Sub(k.at) >= resumeWindow {
			delete(e.resumable, k.vc)
			i++
			continue
		}
		break
	}
	for len(e.resumableQ)-i > resumableCap && i < len(e.resumableQ) {
		delete(e.resumable, e.resumableQ[i].vc)
		i++
	}
	if i > 0 {
		e.resumableQ = append(e.resumableQ[:0], e.resumableQ[i:]...)
	}
}

// takeResumePoint seals the old incarnation of vc at the sink — live or
// tombstoned — and returns the exact delivery watermark the successor must
// resume from. ok is false when nothing about vc survives (the resume
// window expired or the VC never existed here).
func (e *Entity) takeResumePoint(vc core.VCID) (core.OSDUSeq, bool) {
	e.mu.Lock()
	old := e.recvs[vc]
	if old == nil {
		old = e.resumable[vc]
	}
	delete(e.resumable, vc)
	e.mu.Unlock()
	if old == nil {
		return 0, false
	}
	// Seal before teardown: Seal discards the queue and stops every future
	// pop, so the watermark cannot move after we read it. (Teardown alone
	// would let the application keep draining buffered OSDUs, making any
	// advertised watermark stale by the time the sender replays.)
	seq := old.sealResumePoint()
	old.teardown()
	return seq, true
}

// ResumeRequest carries what the session layer preserved from a failed
// source VC into the resume exchange.
type ResumeRequest struct {
	// VC is the failed VC's identifier; the successor keeps it, so
	// orchestration state (session tables, regulation targets) stays valid
	// across the failure.
	VC    core.VCID
	Tuple core.ConnectTuple
	// Profile and Class are carried over from the failed VC.
	Profile qos.Profile
	Class   qos.Class
	// Spec is the QoS to renegotiate with — the original spec, or the
	// session policy's degraded floor.
	Spec qos.Spec
	// Avoid lists intermediate hops to route around when re-reserving; it
	// takes effect when the entity's reserver supports alternate routing
	// (resv.Manager over a multi-path netem topology).
	Avoid []core.HostID
	// NextSeq and NextTPDU continue the failed VC's numbering so the
	// receiver sees one unbroken stream.
	NextSeq  core.OSDUSeq
	NextTPDU uint64
}

// Resume re-establishes a failed VC: fresh admission (optionally around
// dead hops), a ResumeReq/ResumeConf exchange with the sink, and a new
// SendVC registered under the old identity with sequence numbering carried
// over. It returns the successor and the sink's advertised resume point —
// the OSDU sequence the session layer must replay from.
func (e *Entity) Resume(req ResumeRequest) (*SendVC, core.OSDUSeq, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, 0, err
	}
	pc, err := e.capabilityAvoiding(req.Tuple.Source.Host, req.Tuple.Dest.Host, req.Spec, req.Avoid)
	if err != nil {
		return nil, 0, &RejectError{Reason: core.ReasonNoSuchTSAP, Detail: err.Error()}
	}
	contract, err := qos.Negotiate(req.Spec, pc)
	if err != nil {
		return nil, 0, &RejectError{Reason: core.ReasonQoSUnattainable, Detail: err.Error()}
	}

	var resvID resv.ID
	var path []core.HostID
	if contract.Guarantee != qos.BestEffort {
		resvID, path, err = e.reserveAvoiding(req.Tuple.Source.Host, req.Tuple.Dest.Host,
			e.bytesPerSecond(contract), req.Avoid)
		if err != nil {
			return nil, 0, &RejectError{Reason: core.ReasonNoResources, Detail: err.Error()}
		}
	}
	release := func() {
		if resvID != 0 {
			_ = e.rm.Release(resvID)
		}
	}

	reply, err := e.request(req.Tuple.Dest.Host, &pdu.Control{
		Kind: pdu.KindResumeReq, VC: req.VC, Tuple: req.Tuple,
		Profile: req.Profile, Class: req.Class, Spec: req.Spec, Contract: contract,
	})
	if err != nil {
		release()
		return nil, 0, err
	}
	if reply.Kind != pdu.KindResumeConf {
		release()
		return nil, 0, &RejectError{Reason: reply.Reason}
	}
	final := reply.Contract
	resumeFrom := core.OSDUSeq(reply.Seq)
	if resvID != 0 && final.Throughput < contract.Throughput {
		_ = e.rm.Adjust(resvID, e.bytesPerSecond(final))
	}

	s := newSendVC(e, req.VC, req.Tuple, req.Profile, req.Class, final, resvID)
	s.path = path
	s.nextSeq = req.NextSeq
	s.tpduSeq = req.NextTPDU
	s.replayBase = req.NextSeq
	s.sentSeq.Store(uint64(resumeFrom))
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.teardown()
		release()
		return nil, 0, ErrClosed
	}
	if cur, live := e.sends[req.VC]; live && cur != s {
		e.mu.Unlock()
		s.teardown()
		release()
		return nil, 0, &RejectError{Reason: core.ReasonProtocolError, Detail: "VC already live"}
	}
	e.sends[req.VC] = s
	e.peerAddLocked(s.tuple.Dest.Host, req.VC)
	e.mu.Unlock()
	s.start()
	e.scope.Scope(vcScopeName(req.VC)).Counter("recoveries").Inc()
	return s, resumeFrom, nil
}

// capabilityAvoiding is capabilityFor constrained to routes that skip the
// avoid set, when the substrate can answer that question; otherwise the
// default-route capability stands (and the reservation step decides).
func (e *Entity) capabilityAvoiding(src, dst core.HostID, spec qos.Spec, avoid []core.HostID) (qos.Capability, error) {
	type avoider interface {
		PathCapabilityAvoiding(src, dst core.HostID, pktSize int, avoid []core.HostID) (qos.Capability, error)
	}
	if a, ok := e.net.(avoider); ok && len(avoid) > 0 {
		pc, err := a.PathCapabilityAvoiding(src, dst, spec.MaxOSDUSize, avoid)
		if err != nil {
			return qos.Capability{}, err
		}
		pc.MaxThroughput *= 0.999
		return pc, nil
	}
	return e.capabilityFor(src, dst, spec)
}

// reserveAvoiding reserves bandwidth, routing around the avoid set when the
// reserver can (resv.Repather); otherwise it falls back to the default
// route.
func (e *Entity) reserveAvoiding(src, dst core.HostID, bps float64, avoid []core.HostID) (resv.ID, []core.HostID, error) {
	if len(avoid) > 0 {
		if rp, ok := e.rm.(resv.Repather); ok {
			return rp.ReserveAvoiding(src, dst, bps, avoid)
		}
	}
	return e.rm.Reserve(src, dst, bps)
}

// handleResumeReq is the sink side of the resume exchange: seal the old
// incarnation, install a successor RecvVC that continues delivery exactly
// at the sealed watermark, and advertise that watermark to the source.
func (e *Entity) handleResumeReq(from core.HostID, c *pdu.Control) {
	rej := func(reason core.Reason) {
		e.reply(from, &pdu.Control{
			Kind: pdu.KindConnRej, VC: c.VC, Tuple: c.Tuple,
			Reason: reason, Token: c.Token,
		})
	}
	// Retransmitted ResumeReq: the successor is already installed;
	// re-confirm idempotently with the watermark it was built on.
	e.mu.Lock()
	if cur, ok := e.recvs[c.VC]; ok && cur.resumeTok == c.Token {
		e.mu.Unlock()
		e.reply(from, &pdu.Control{
			Kind: pdu.KindResumeConf, VC: c.VC, Tuple: c.Tuple,
			Contract: cur.Contract(), Token: c.Token, Seq: uint64(cur.resumeBase),
		})
		return
	}
	e.mu.Unlock()

	u, ok := e.user(c.Tuple.Dest.TSAP)
	if !ok {
		rej(core.ReasonNoSuchTSAP)
		return
	}
	final := c.Contract
	if u.OnConnectIndication != nil {
		accept, responder := u.OnConnectIndication(c.Tuple, RoleSink, c.Spec)
		if !accept {
			rej(core.ReasonUserRejected)
			return
		}
		if responder.MaxOSDUSize > 0 {
			weakened, err := qos.Weaken(c.Contract, responder)
			if err != nil {
				rej(core.ReasonQoSUnattainable)
				return
			}
			final = weakened
		}
	}

	resumeSeq, found := e.takeResumePoint(c.VC)
	if !found {
		// Nothing of the VC survives here: continuity cannot be honoured,
		// so refuse rather than silently replaying delivered data.
		rej(core.ReasonNoSuchVC)
		return
	}

	r := newRecvVC(e, c.VC, c.Tuple, c.Profile, c.Class, final)
	r.initResume(resumeSeq, c.Token)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		r.teardown()
		rej(core.ReasonNetworkFailure)
		return
	}
	e.recvs[c.VC] = r
	e.peerAddLocked(r.tuple.Source.Host, c.VC)
	e.mu.Unlock()
	r.start()

	e.reply(from, &pdu.Control{
		Kind: pdu.KindResumeConf, VC: c.VC, Tuple: c.Tuple, Contract: final,
		Token: c.Token, Seq: uint64(resumeSeq),
	})
	if u.OnRecvReady != nil {
		u.OnRecvReady(r)
	}
}
