package transport

import (
	"fmt"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
)

// Renegotiate performs T-Renegotiate.request (Table 3): a fully confirmed
// exchange with full option negotiation that alters the VC's QoS without
// changing its protocol or class of service (§4.1.3). On success both
// ends run under the new contract, buffers are transparently rebuilt when
// MaxOSDUSize grows, and the reservation is adjusted in place.
//
// On failure the service follows the paper exactly: the caller receives a
// T-Disconnect.indication (delivered as OnDisconnect with live=true) but
// the existing VC is NOT torn down and keeps its previous contract.
func (s *SendVC) Renegotiate(spec qos.Spec) (qos.Contract, error) {
	e := s.e
	if s.members != nil {
		return qos.Contract{}, fmt.Errorf("transport: re-negotiation of multicast VCs is not supported")
	}
	e.trace("initiator", core.TRenegotiateRequest)
	fail := func(err error) (qos.Contract, error) {
		e.trace("initiator", core.TDisconnectIndication)
		if u, ok := e.user(s.tuple.Source.TSAP); ok && u.OnDisconnect != nil {
			reason := core.ReasonQoSUnattainable
			if rej, isRej := err.(*RejectError); isRej {
				reason = rej.Reason
			}
			u.OnDisconnect(s.id, reason, true)
		}
		return qos.Contract{}, err
	}
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	cur := s.Contract()
	pc, err := e.capabilityFor(s.tuple.Source.Host, s.tuple.Dest.Host, spec)
	if err != nil {
		return fail(&RejectError{Reason: core.ReasonNetworkFailure, Detail: err.Error()})
	}
	// Our own live reservation is available to the re-negotiated flow:
	// credit it back before negotiating.
	if s.resvID != 0 {
		pc.MaxThroughput += e.bytesPerSecond(cur) / float64(spec.MaxOSDUSize+32)
	}
	proposed, err := qos.Negotiate(spec, pc)
	if err != nil {
		return fail(&RejectError{Reason: core.ReasonQoSUnattainable, Detail: err.Error()})
	}

	// Adjust the reservation up front; roll back if the peer refuses.
	if s.resvID != 0 {
		if err := e.rm.Adjust(s.resvID, e.bytesPerSecond(proposed)); err != nil {
			return fail(&RejectError{Reason: core.ReasonNoResources, Detail: err.Error()})
		}
	}
	rollback := func() {
		if s.resvID != 0 {
			_ = e.rm.Adjust(s.resvID, e.bytesPerSecond(cur))
		}
	}

	reply, err := e.request(s.tuple.Dest.Host, &pdu.Control{
		Kind: pdu.KindRenegReq, VC: s.id, Tuple: s.tuple,
		Profile: s.profile, Class: s.class, Spec: spec, Contract: proposed,
	})
	if err != nil {
		rollback()
		return fail(err)
	}
	if reply.Kind == pdu.KindRenegRej {
		rollback()
		return fail(&RejectError{Reason: reply.Reason})
	}
	final := reply.Contract
	if s.resvID != 0 && final.Throughput < proposed.Throughput {
		_ = e.rm.Adjust(s.resvID, e.bytesPerSecond(final))
	}
	if err := s.applyContract(final); err != nil {
		rollback()
		return fail(err)
	}
	e.trace("initiator", core.TRenegotiateConfirm)
	if u, ok := e.user(s.tuple.Source.TSAP); ok && u.OnRenegotiated != nil {
		u.OnRenegotiated(s.id, final)
	}
	return final, nil
}

// applyContract switches the send side to a new contract: pacing rate and
// (growing only) a transparent ring rebuild.
func (s *SendVC) applyContract(c qos.Contract) error {
	if c.MaxOSDUSize > s.ring.SlotSize() {
		if err := s.ring.ResizeSlots(c.MaxOSDUSize); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.contract = c
	s.mu.Unlock()
	s.bucket.SetRate(c.Throughput)
	return nil
}

// applyContract switches the receive side to a new contract.
func (r *RecvVC) applyContract(c qos.Contract) error {
	if c.MaxOSDUSize > r.ring.SlotSize() {
		if err := r.ring.ResizeSlots(c.MaxOSDUSize); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.contract = c
	r.mu.Unlock()
	r.setLateBound(c)
	return nil
}

// handleRenegReq is the sink entity's side of re-negotiation: deliver
// T-Renegotiate.indication, counter-negotiate, rebuild buffers, confirm.
func (e *Entity) handleRenegReq(from core.HostID, c *pdu.Control) {
	rej := func(reason core.Reason) {
		e.reply(from, &pdu.Control{
			Kind: pdu.KindRenegRej, VC: c.VC, Reason: reason, Token: c.Token,
		})
	}
	r, ok := e.SinkVC(c.VC)
	if !ok {
		rej(core.ReasonNoSuchVC)
		return
	}
	e.trace("dest", core.TRenegotiateIndication)
	u, _ := e.user(c.Tuple.Dest.TSAP)
	final := c.Contract
	if u.OnRenegotiate != nil {
		accept, responder := u.OnRenegotiate(c.VC, c.Contract, c.Spec)
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
	e.trace("dest", core.TRenegotiateResponse)
	if err := r.applyContract(final); err != nil {
		rej(core.ReasonProtocolError)
		return
	}
	e.reply(from, &pdu.Control{
		Kind: pdu.KindRenegConf, VC: c.VC, Contract: final, Token: c.Token,
	})
	if u.OnRenegotiated != nil {
		u.OnRenegotiated(c.VC, final)
	}
}
