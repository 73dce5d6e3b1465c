package transport

import (
	"sync"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/predict"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// The predictive QoS guard sits beside the reactive degradation ladder
// (degrade.go) and acts BEFORE a violation streak fires. Every sample
// report the sink relays — violated or not, see recv.go — feeds a per-VC
// predictor (package predict: Holt trend per contract parameter plus a
// Gilbert–Elliott loss-burst estimator). When the forecast probability
// of a violation within PredictHorizon periods crosses
// Config.PredictThreshold, the guard acts in escalating order:
//
//  1. shed — shift source-side drop budget through the orchestration
//     layer (OrchForecast to the session's agent), the gentlest lever:
//     no contract change, no path change, just earlier load shedding;
//  2. reroute — ask the session supervisor to migrate the VC onto a
//     path avoiding the current intermediate hops (the PR 4
//     ReserveAvoiding machinery), keeping the contract intact;
//  3. renegotiate — take one ladder rung down via the shared degrade
//     ladder, before the reactive streak would have forced it.
//
// Each action is vetoable through UserCallbacks.OnGuard. Hysteresis
// keeps the guard from flapping: actions are spaced by PredictCooldown,
// and a false-positive budget (PredictFPBudget actions in a row whose
// forecast horizon passes without any observed violation) disarms the
// guard for PredictDisarm, during which the reactive ladder — whose
// behavior the guard never alters — remains the only authority. An
// escalation level that ends quietly resets to shed; a level whose
// predicted violation arrives anyway escalates the next firing.

// vcGuard is the per-VC guard state. Created at connect time when
// prediction is enabled and the contract is Soft; nil otherwise.
type vcGuard struct {
	mu   sync.Mutex
	pred *predict.Predictor

	level       int       // next action to try (GuardAction ordinal)
	lastAction  time.Time // cooldown anchor: when the last action fired
	pending     bool      // an action fired; outcome not yet resolved
	pendingAt   time.Time
	fps         int       // consecutive actions without an observed violation
	disarmUntil time.Time // zero when armed
	active      bool      // an action goroutine is in flight

	forecastG *stats.Gauge // latest combined violation probability
}

func newVCGuard(e *Entity, id core.VCID) *vcGuard {
	return &vcGuard{
		pred: predict.New(predict.Config{
			Window:  predictWindow,
			BadLoss: e.cfg.QoSSlack, // loss beyond slack marks a Bad period
		}),
		forecastG: e.scope.Scope(vcScopeName(id)).Gauge("guard/violation_p"),
	}
}

// guardObserve feeds one relayed sample report to the VC's guard and
// fires a proactive action when the forecast crosses the threshold.
// Called from the entity's dispatch path for every report arriving at
// the source; the forecast itself is cheap, and actions (confirmed
// exchanges) run on their own goroutine like reactive degradations.
func (s *SendVC) guardObserve(rep qos.Report, violated bool) {
	g := s.guard
	if g == nil {
		return
	}
	e := s.e
	g.pred.Observe(rep)
	f := g.pred.Forecast(s.Contract(), e.cfg.QoSSlack, e.cfg.PredictHorizon)
	if g.forecastG != nil {
		g.forecastG.Set(f.PViolation)
	}
	now := e.clk.Now()
	// One grace period past the horizon: reports arrive once per sample
	// period, so the verdict on "did the predicted violation happen?"
	// can only be read at period granularity.
	horizon := time.Duration(e.cfg.PredictHorizon+1) * e.cfg.SamplePeriod

	g.mu.Lock()
	if g.pending {
		if violated {
			// The forecast was right; the chosen action was not enough.
			// Keep the escalated level for the next firing.
			g.pending = false
			g.fps = 0
		} else if now.Sub(g.pendingAt) > horizon {
			// The horizon passed quietly: either the action worked or the
			// trend was noise. Restart from the gentlest action, and count
			// the quiet outcome against the false-positive budget — a
			// predictor that keeps paying for violations nobody observes
			// must eventually stand down and let the reactive ladder be
			// the only authority for a while.
			g.pending = false
			g.level = 0
			g.fps++
			e.scope.Counter("guard/false_positives").Inc()
			if g.fps >= e.cfg.PredictFPBudget {
				g.disarmUntil = now.Add(e.cfg.PredictDisarm)
				g.fps = 0
				e.scope.Counter("guard/disarms").Inc()
			}
		}
	}
	if violated {
		g.fps = 0
	}
	hold := violated || // the reactive path owns an in-progress violation
		g.active ||
		now.Before(g.disarmUntil) ||
		(!g.lastAction.IsZero() && now.Sub(g.lastAction) < e.cfg.PredictCooldown)
	if hold || f.PViolation < e.cfg.PredictThreshold {
		g.mu.Unlock()
		return
	}
	g.active = true
	level := g.level
	g.mu.Unlock()
	go s.guardAct(level, f)
}

// guardAct runs one proactive action, escalating past levels that are
// unavailable (no orchestrator, no alternate path, ladder exhausted).
// A veto from OnGuard ends the attempt — the user said no — but still
// starts the cooldown so the guard doesn't re-ask every period.
func (s *SendVC) guardAct(level int, f predict.Forecast) {
	e := s.e
	g := s.guard
	acted := false
	defer func() {
		now := e.clk.Now()
		g.mu.Lock()
		g.active = false
		g.lastAction = now
		if acted {
			g.pending = true
			g.pendingAt = now
		}
		g.mu.Unlock()
	}()
	for lv := level; lv <= int(GuardRenegotiate); lv++ {
		act := GuardAction(lv)
		if u, ok := e.user(s.tuple.Source.TSAP); ok && u.OnGuard != nil {
			if !u.OnGuard(s.id, act, f) {
				e.scope.Counter("guard/vetoed").Inc()
				return
			}
		}
		var ok bool
		switch act {
		case GuardShed:
			if fn := e.guardShedder(); fn != nil {
				ok = fn(s.id, f.PViolation, e.cfg.PredictHorizon)
			}
		case GuardReroute:
			if fn := e.guardRerouter(); fn != nil {
				ok = fn(s.id)
			}
		case GuardRenegotiate:
			ok = s.guardRenegotiate()
		}
		if ok {
			e.scope.Counter("guard/actions/" + act.String()).Inc()
			acted = true
			g.mu.Lock()
			if lv < int(GuardRenegotiate) {
				g.level = lv + 1
			}
			g.mu.Unlock()
			return
		}
	}
	// Every lever was unavailable: nothing proactive to do. The reactive
	// ladder still fires if the violation actually lands.
}

// guardRenegotiate takes one rung down the shared degrade ladder ahead
// of the reactive streak. It shares the ladder position (deg.step) with
// degrade.go so the two paths never repeat or skip a rung, and unlike
// the reactive path it never disconnects: an exhausted ladder just
// means the guard has nothing left to offer.
func (s *SendVC) guardRenegotiate() bool {
	e := s.e
	s.deg.Lock()
	if s.deg.active || s.deg.step >= len(e.cfg.DegradeLadder) {
		s.deg.Unlock()
		return false
	}
	s.deg.active = true
	step := s.deg.step
	s.deg.step = step + 1
	s.deg.Unlock()
	defer func() {
		s.deg.Lock()
		s.deg.active = false
		s.deg.Unlock()
	}()
	proposed := degradeSpec(s.Contract(), e.cfg.DegradeLadder[step])
	if _, err := s.Renegotiate(proposed); err != nil {
		return false
	}
	return true
}
