package obs

import (
	"fmt"
	"sync"
)

// OverflowScope is the shared journal that absorbs every scope beyond the
// cardinality cap. Its quality figures are an aggregate approximation:
// predictions and failures of all folded scopes match against each other.
// Its writers share one mutex, so a caller with many folded sources a cycle
// (a fleet) counts their verdicts and journals them with one
// Ledger.RecordPredictions rather than a RecordPrediction each.
const OverflowScope = "~overflow"

// scopeSet is the cap-and-fold bookkeeping ScopedLedger and ScopedRecorder
// share: the first max scopes each own a dedicated member (a *Ledger or a
// *Recorder), later scopes fold into one shared overflow member, and a
// released scope frees its slot. mu also guards the embedding type's own
// fields. The exported accessors are promoted to both types; unlike the
// types' own methods they need a non-nil receiver (a promoted method cannot
// see a nil outer pointer).
type scopeSet[T comparable] struct {
	mu       sync.Mutex
	max      int
	order    []string // dedicated scopes, registration order
	scopes   map[string]T
	overflow T     // zero until the first fold
	folded   int64 // scopes routed to the overflow member
	// distinct caches distinctLocked's answer until a member joins or
	// leaves; it is handed out uncopied and never rewritten in place.
	distinct []T
}

// init sets the dedicated-member cap (minimum 1).
func (s *scopeSet[T]) init(maxScopes int) error {
	if maxScopes < 1 {
		return fmt.Errorf("%w: scope cap %d (need >= 1)", ErrObs, maxScopes)
	}
	s.max, s.scopes = maxScopes, make(map[string]T)
	return nil
}

// getLocked returns the named scope's member, creating it with build(name)
// while a dedicated slot is free and folding it into the overflow member
// (build(OverflowScope), created on first use) once the cap is reached.
// Caller holds mu.
func (s *scopeSet[T]) getLocked(name string, build func(scope string) T) T {
	if m, ok := s.scopes[name]; ok {
		return m
	}
	if name != OverflowScope && len(s.order) < s.max {
		m := build(name)
		s.scopes[name] = m
		s.order = append(s.order, name)
		s.distinct = nil
		return m
	}
	var zero T
	if s.overflow == zero {
		s.overflow = build(OverflowScope)
		s.scopes[OverflowScope] = s.overflow
		s.distinct = nil
	}
	if name != OverflowScope {
		s.folded++
		s.scopes[name] = s.overflow
	}
	return s.overflow
}

// releaseLocked retires the named scope and returns its member if that was
// a dedicated one (the caller banks its lifetime totals). Releasing a
// folded scope only decrements folded; an unknown scope and the overflow
// scope are no-ops. Caller holds mu.
func (s *scopeSet[T]) releaseLocked(name string) (member T, dedicated bool) {
	m, ok := s.scopes[name]
	if !ok || name == OverflowScope {
		return member, false
	}
	delete(s.scopes, name)
	if m == s.overflow {
		s.folded--
		return member, false
	}
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.distinct = nil
	return m, true
}

// distinctLocked returns each distinct member once: dedicated scopes in
// registration order, then the overflow member. The slice is shared with
// every caller until membership changes: read it, do not write it. Caller
// holds mu.
func (s *scopeSet[T]) distinctLocked() []T {
	if s.distinct != nil {
		return s.distinct
	}
	out := make([]T, 0, len(s.order)+1)
	for _, name := range s.order {
		out = append(out, s.scopes[name])
	}
	var zero T
	if s.overflow != zero {
		out = append(out, s.overflow)
	}
	s.distinct = out
	return out
}

// Dedicated reports whether the named scope owns its member (false when it
// was folded into the overflow scope, or never seen).
func (s *scopeSet[T]) Dedicated(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.scopes[name]
	return ok && m != s.overflow
}

// Scopes returns the dedicated scope names in registration order, plus the
// OverflowScope last if any scope was folded.
func (s *scopeSet[T]) Scopes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.order...)
	var zero T
	if s.overflow != zero {
		out = append(out, OverflowScope)
	}
	return out
}

// Folded returns how many distinct scopes share the overflow member.
func (s *scopeSet[T]) Folded() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.folded
}

// ScopedLedger multiplexes per-scope prediction-quality Ledgers — one per
// tenant in a fleet — under a single configuration, with a cardinality cap:
// the first MaxScopes scopes each get a dedicated journal (own failure
// stream, own per-layer rows), later scopes share the OverflowScope
// journal. The cap bounds memory and metric cardinality no matter how many
// tenants register; the paper's per-instance Sect. 3.3 accounting stays
// exact for every dedicated scope.
type ScopedLedger struct {
	scopeSet[*Ledger]
	cfg    LedgerConfig
	layers []string
	// retired totals keep Totals monotonic after Release drops a journal.
	retiredPred int64
	retiredFail int64
}

// NewScopedLedger builds a scoped ledger. maxScopes caps the number of
// dedicated per-scope journals (minimum 1); layerNames are pre-declared on
// every scope so quality rows exist before the first prediction.
func NewScopedLedger(cfg LedgerConfig, maxScopes int, layerNames ...string) (*ScopedLedger, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &ScopedLedger{cfg: cfg, layers: append([]string(nil), layerNames...)}
	if err := s.init(maxScopes); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the matching configuration shared by every scope.
func (s *ScopedLedger) Config() LedgerConfig { return s.cfg }

// Scope returns the named scope's journal, creating it on first use. Once
// the cap is reached, every new scope returns the shared overflow journal.
// The returned Ledger is safe for concurrent use like any other.
func (s *ScopedLedger) Scope(name string) *Ledger {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(name, func(string) *Ledger {
		led, _ := NewLedger(s.cfg, s.layers...) // cfg already validated
		return led
	})
}

// Release retires the named scope (a removed tenant): its journal is
// dropped from Scopes and the cardinality cap slot is freed for a future
// scope. The journal's lifetime prediction/failure totals are retained so
// Totals stays monotonic. Releasing a folded scope decrements Folded; its
// rows stay merged in the overflow journal (the same aggregate
// approximation folding made on the way in). Releasing an unknown scope or
// the overflow scope is a no-op. Any *Ledger handle obtained earlier stays
// safe to use; its writes just no longer surface here.
func (s *ScopedLedger) Release(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if led, ok := s.releaseLocked(name); ok {
		snap := led.Snapshot()
		s.retiredPred += snap.Predictions
		s.retiredFail += snap.Failures
	}
}

// Totals sums journaled predictions and failures across every journal.
func (s *ScopedLedger) Totals() (predictions, failures int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	predictions, failures = s.retiredPred, s.retiredFail
	leds := s.distinctLocked()
	s.mu.Unlock()
	for _, led := range leds {
		snap := led.Snapshot()
		predictions += snap.Predictions
		failures += snap.Failures
	}
	return predictions, failures
}
