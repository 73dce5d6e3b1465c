package transport

import (
	"fmt"

	"cmtos/internal/core"
	"cmtos/internal/qos"
)

// ConnectMulticast establishes the simple 1:N CM topology of §3.8: one
// send VC whose data TPDUs the source sends to every destination. It
// shares Connect's establishment: each destination runs the normal
// confirmed exchange (T-Connect.indication at its user,
// counter-negotiation), and the final contract is the weakest the group
// can sustain, so the connections "maintain a compatible temporal
// transmission rate". Members are not liveness peers of the source.
//
// Restrictions (the paper defers multicast refinement to future work, §7):
// the profile must be the CM rate-based one and the class must not be
// error-correcting (retransmission to a group needs per-member state this
// transport does not keep). Flow control is slowest-member: any sink's
// XOFF holds the source, and the lease machinery resolves the resulting
// contention.
func (e *Entity) ConnectMulticast(req ConnectRequest, dests []core.Addr) (*SendVC, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("transport: multicast needs at least one destination")
	}
	if req.Profile != qos.ProfileCMRate {
		return nil, fmt.Errorf("transport: multicast requires the cm-rate profile")
	}
	if req.Class.Corrects() {
		return nil, fmt.Errorf("transport: multicast cannot use a correcting class")
	}
	return e.connect(req, dests)
}
