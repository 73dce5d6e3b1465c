// Package transport implements the continuous-media transport service of
// §4: simplex virtual circuits with fully negotiated QoS (Table 1), soft
// guarantees monitored per sample period with T-QoS.indication (Table 2),
// dynamic re-negotiation including transparent re-establishment (Table 3),
// the three-address remote connection facility (§3.5, Figs. 2-3),
// class-of-service error control (§3.4), rate-based or window-based flow
// control profiles, and the shared circular-buffer data transfer interface
// of §3.7 with OSDU boundary preservation and per-OSDU OPDU fields (§5).
//
// One Entity runs per emulated host. Applications attach UserCallbacks to
// TSAPs, connect with Connect/ConnectRemote, and then move OSDUs through
// SendVC.Write and RecvVC.Read. The orchestration layer (package orch)
// drives the exported regulation hooks on SendVC/RecvVC and the Orch PDU
// channel on Entity.
package transport

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/predict"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// Fixed sizes and windows of the entity's protocol machinery.
const (
	// retransBuf bounds outstanding unacknowledged TPDUs in the
	// error-correcting classes; the sender blocks at the bound.
	retransBuf = 64
	// shardQueue is the per-shard receive handoff ring capacity (a power
	// of two). Data, ack and flow events beyond it are dropped and
	// counted in shard/handoff_drops; all are protocol-recoverable.
	shardQueue = 2048
	// resumeWindow bounds how long a torn-down sink VC's delivery
	// watermark survives awaiting a session-layer resume; past it the VC
	// can no longer be resumed (ReasonNoSuchVC).
	resumeWindow = 30 * time.Second
	// predictWindow is the predictive guard's rolling report window.
	predictWindow = 32
)

// Config tunes an Entity. The zero value selects all defaults.
type Config struct {
	// MaxTPDU bounds the payload of one data TPDU in bytes; OSDUs larger
	// than this are segmented. Default 1024.
	MaxTPDU int
	// RingSlots is the OSDU capacity of each shared circular buffer
	// (§3.7); it is also the depth Orch.Prime fills. Default 16.
	RingSlots int
	// ConnectTimeout bounds every confirmed control exchange. Default 2s.
	ConnectTimeout time.Duration
	// SamplePeriod is the QoS monitoring period behind T-QoS.indication
	// (Table 2). Default 250ms.
	SamplePeriod time.Duration
	// AckEvery makes the receiver acknowledge after this many in-order
	// TPDUs in the error-correcting classes. Default 8.
	AckEvery int
	// RTO is the sender retransmission timeout for the error-correcting
	// classes. Default 100ms.
	RTO time.Duration
	// QoSSlack is the measurement slack fraction applied before a
	// violation is indicated. Default 0.05.
	QoSSlack float64
	// WindowSize is the initial credit for the window-based profile.
	// Default 16.
	WindowSize int
	// ServedTTL bounds how long a remote-connect result stays in the
	// replay cache; it need only outlive the initiator's retransmission
	// window (ConnectTimeout). Default 4x ConnectTimeout.
	ServedTTL time.Duration
	// ServedCap bounds the replay cache's entry count; the oldest
	// entries are evicted beyond it. Default 1024.
	ServedCap int
	// DispatchWorkers is the number of goroutines handling blocking
	// control work (connect/reneg handshakes, orch and datagram
	// callbacks). Default 4.
	DispatchWorkers int
	// DispatchQueue bounds queued dispatch work; beyond it PDUs are
	// dropped (confirmed exchanges retransmit). Default 256.
	DispatchQueue int
	// Shards is the number of transport event-loop goroutines. Every VC
	// is assigned to the shard hashed from its VCID; all of its protocol
	// work (send pacing, retransmission, QoS sampling, flow control,
	// keepalives) runs there, multiplexed through a per-shard timer
	// wheel, so the entity's steady-state goroutine count is O(Shards),
	// not O(VCs). Default min(8, GOMAXPROCS).
	Shards int
	// KeepaliveInterval is the peer-liveness probe period: peers with
	// live VCs that stay silent a whole interval are sent a keepalive
	// control PDU, and after KeepaliveMisses further silent intervals
	// they are declared dead (their VCs torn down with
	// ReasonNetworkFailure, reservations released). Any received packet
	// counts as life, so keepalives only flow on otherwise-idle peers.
	// Default 1s; negative disables liveness entirely.
	KeepaliveInterval time.Duration
	// KeepaliveMisses is how many consecutive unanswered keepalive
	// intervals declare a peer dead; the worst-case detection window is
	// (KeepaliveMisses+1) x KeepaliveInterval of silence. Default 3.
	KeepaliveMisses int
	// DegradeAfter enables graceful degradation for Soft-guarantee
	// source VCs: after this many consecutive violated QoS sample
	// reports, the source automatically renegotiates one step down the
	// DegradeLadder; when the ladder is exhausted and violations
	// persist, the VC is disconnected with ReasonQoSUnattainable.
	// Default 0 (disabled).
	DegradeAfter int
	// DegradeLadder lists the relaxation steps applied in order by
	// automatic degradation, each relative to the contract in force when
	// the step fires. Nil with DegradeAfter > 0 selects a default
	// two-step ladder (75% then 50% of the current rate, doubling the
	// jitter bound each time).
	DegradeLadder []DegradeStep
	// PredictThreshold enables the predictive QoS guard for Soft source
	// VCs: every relayed sample report (violated or not) feeds a per-VC
	// predictor, and when the forecast probability of a violation within
	// PredictHorizon sample periods crosses this threshold the guard acts
	// proactively — shed source drop budget via orchestration, re-route
	// around congested hops via the session supervisor, or renegotiate
	// one ladder rung down — before the reactive violation streak fires.
	// 0 (the default) disables prediction entirely; the reactive ladder
	// behaves exactly as without a guard.
	PredictThreshold float64
	// PredictHorizon is the forecast lookahead in sample periods.
	// Default 4.
	PredictHorizon int
	// PredictCooldown is the minimum spacing between guard actions on one
	// VC — the hysteresis that keeps the guard from flapping. Default
	// 4x SamplePeriod.
	PredictCooldown time.Duration
	// PredictFPBudget is how many consecutive guard actions may resolve
	// without an observed violation before the guard disarms itself and
	// defers to the reactive ladder. Default 3.
	PredictFPBudget int
	// PredictDisarm is how long an over-budget guard stays disarmed
	// before re-arming with fresh counters. Default 16x SamplePeriod.
	PredictDisarm time.Duration
	// Stats receives the entity's metrics under host/<id>/... Nil (the
	// default) disables metrics collection entirely; the data path then
	// pays only nil-instrument no-op calls.
	Stats *stats.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxTPDU <= 0 {
		c.MaxTPDU = 1024
	}
	if c.RingSlots <= 0 {
		c.RingSlots = 16
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 250 * time.Millisecond
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 8
	}
	if c.RTO <= 0 {
		c.RTO = 100 * time.Millisecond
	}
	if c.QoSSlack <= 0 {
		c.QoSSlack = 0.05
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 16
	}
	if c.ServedTTL <= 0 {
		c.ServedTTL = 4 * c.ConnectTimeout
	}
	if c.ServedCap <= 0 {
		c.ServedCap = 1024
	}
	if c.DispatchWorkers <= 0 {
		c.DispatchWorkers = 4
	}
	if c.DispatchQueue <= 0 {
		c.DispatchQueue = 256
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = time.Second
	}
	if c.KeepaliveMisses <= 0 {
		c.KeepaliveMisses = 3
	}
	if (c.DegradeAfter > 0 || c.PredictThreshold > 0) && len(c.DegradeLadder) == 0 {
		c.DegradeLadder = []DegradeStep{
			{Throughput: 0.75, Jitter: 2},
			{Throughput: 0.5, Jitter: 2},
		}
	}
	if c.PredictThreshold > 0 {
		if c.PredictHorizon <= 0 {
			c.PredictHorizon = 4
		}
		if c.PredictCooldown <= 0 {
			c.PredictCooldown = 4 * c.SamplePeriod
		}
		if c.PredictFPBudget <= 0 {
			c.PredictFPBudget = 3
		}
		if c.PredictDisarm <= 0 {
			c.PredictDisarm = 16 * c.SamplePeriod
		}
	}
	return c
}

// GuardAction identifies one escalation level of the predictive QoS
// guard, in the order the guard tries them.
type GuardAction uint8

// Guard escalation levels: shift source-side drop budget through the
// orchestration layer, re-route around the congested path through the
// session supervisor, then renegotiate one ladder rung down.
const (
	GuardShed GuardAction = iota
	GuardReroute
	GuardRenegotiate
)

var guardActionNames = [...]string{
	GuardShed:        "shed",
	GuardReroute:     "reroute",
	GuardRenegotiate: "renegotiate",
}

// String returns the action's name.
func (a GuardAction) String() string {
	if int(a) < len(guardActionNames) {
		return guardActionNames[a]
	}
	return fmt.Sprintf("guard-action(%d)", uint8(a))
}

// DegradeStep is one rung of the automatic degradation ladder: the
// factors applied to the current contract's throughput and jitter bound
// when a Soft VC renegotiates down under sustained violation. Zero
// fields mean "leave the parameter alone".
type DegradeStep struct {
	// Throughput scales the contract rate (0.75 = ask for 75% of the
	// current rate).
	Throughput float64
	// Jitter scales the contract jitter bound (2 = tolerate twice the
	// current jitter).
	Jitter float64
}

// Role tells a T-Connect.indication which end of the proposed VC the
// called TSAP would play.
type Role uint8

// Roles.
const (
	RoleSource Role = iota // the TSAP would transmit
	RoleSink               // the TSAP would receive
)

// String returns "source" or "sink".
func (r Role) String() string {
	if r == RoleSource {
		return "source"
	}
	return "sink"
}

// QoSIndication is the payload of T-QoS.indication (Table 2): the VC, its
// negotiated contract, the sample period's measured report, and the
// parameters found violated.
type QoSIndication struct {
	VC       core.VCID
	Tuple    core.ConnectTuple
	Contract qos.Contract
	Report   qos.Report
	Violated []qos.Param
}

// UserCallbacks is how an application (or the platform's Stream layer)
// attaches behaviour to a TSAP. Any nil callback takes the default noted
// on the field. Callbacks run on transport goroutines and should not
// block for long.
type UserCallbacks struct {
	// OnConnectIndication is T-Connect.indication: a peer (or a remote
	// initiator) proposes that this TSAP become the source or sink of a
	// VC with the given spec. Return accept and the responder's own QoS
	// spec for counter-negotiation. Nil accepts with the offered spec.
	OnConnectIndication func(tup core.ConnectTuple, role Role, spec qos.Spec) (accept bool, responder qos.Spec)
	// OnSendReady delivers the send handle once a VC with this TSAP as
	// source is established (needed for remote connects, where the
	// source did not call Connect itself). Nil discards the handle.
	OnSendReady func(*SendVC)
	// OnRecvReady delivers the receive handle once a VC with this TSAP
	// as sink is established. Nil discards the handle.
	OnRecvReady func(*RecvVC)
	// OnDisconnect is T-Disconnect.indication. It is also used, per
	// §4.1.3, to report a rejected re-negotiation — in that case the VC
	// is still alive, which the Live field distinguishes.
	OnDisconnect func(vc core.VCID, reason core.Reason, live bool)
	// OnQoS is T-QoS.indication (Table 2), delivered when the class of
	// service includes indication and the sample period showed
	// violations.
	OnQoS func(QoSIndication)
	// OnRenegotiate is T-Renegotiate.indication: the peer proposes a new
	// spec; the offer contract is what the provider can support. Return
	// accept and the responder's spec. Nil accepts the offer.
	OnRenegotiate func(vc core.VCID, offer qos.Contract, spec qos.Spec) (accept bool, responder qos.Spec)
	// OnRenegotiated reports the new contract after a successful
	// re-negotiation (both ends).
	OnRenegotiated func(vc core.VCID, contract qos.Contract)
	// OnDegrade, when automatic degradation (Config.DegradeAfter) is
	// enabled, is consulted before each automatic step down the ladder:
	// step is the ladder index about to fire and proposed the spec the
	// source would renegotiate to. Return false to veto the step (the
	// VC holds its contract and the violation streak restarts). Nil
	// accepts every step.
	OnDegrade func(vc core.VCID, step int, proposed qos.Spec) bool
	// OnGuard, when the predictive guard (Config.PredictThreshold) is
	// enabled, is consulted before each proactive action: action is the
	// escalation level about to fire and f the forecast that crossed the
	// threshold. Return false to veto — the guard stands down for this
	// firing (cooldown still applies) and the reactive ladder remains
	// the only authority. Nil accepts every action.
	OnGuard func(vc core.VCID, action GuardAction, f predict.Forecast) bool
}

// ConnectRequest carries the parameters of T-Connect.request (Table 1)
// for the conventional case where the caller is the source.
type ConnectRequest struct {
	// SrcTSAP is the local source TSAP. It need not be attached; attach
	// first if indications are wanted.
	SrcTSAP core.TSAP
	// Dest is the remote sink endpoint.
	Dest core.Addr
	// Profile selects the protocol profile (§3.4).
	Profile qos.Profile
	// Class selects the error-control class of service (§3.4).
	Class qos.Class
	// Spec is the requested QoS tolerance window.
	Spec qos.Spec
	// StartSeq, when nonzero, asks the sink to begin in-order delivery at
	// this OSDU sequence instead of 0 — a mid-stream join, where a relay
	// publishes from its current splice head onto a newly connected leaf.
	StartSeq core.OSDUSeq
}

// Errors returned by connection management.
var (
	ErrClosed  = errors.New("transport: entity closed")
	ErrTimeout = errors.New("transport: control exchange timed out")
)

// RejectError reports a connection or re-negotiation refused by the peer,
// the network provider, or admission control.
type RejectError struct {
	Reason core.Reason
	Detail string
}

// Error implements error.
func (e *RejectError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("transport: rejected (%s): %s", e.Reason, e.Detail)
	}
	return fmt.Sprintf("transport: rejected (%s)", e.Reason)
}

// gate is a multi-condition hold on the sender: any held bit blocks
// transmission. It keeps peer flow control (XOFF) and orchestration holds
// (Orch.Stop, ahead-of-target blocking) independent.
type gateBit uint8

const (
	gatePeer gateBit = 1 << iota // sink buffers full (XOFF)
	gateOrch                     // orchestration hold
)
