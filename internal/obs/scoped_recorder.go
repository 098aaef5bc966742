package obs

import "sort"

// RecorderScopeConfig carries the per-scope overrides a fleet applies on
// top of the template RecorderConfig when registering a tenant.
type RecorderScopeConfig struct {
	// WarnThreshold overrides the template's warn-trigger gate (fleets
	// weight it by tenant criticality); 0 keeps the template value.
	WarnThreshold float64
	// Ledger overrides the burn-rate/quality source with the scope's own
	// journal (typically ScopedLedger.Scope of the same name).
	Ledger *Ledger
}

// ScopedRecorder multiplexes per-scope flight recorders — one per tenant
// in a fleet — under a single template configuration, with the same
// cardinality cap and overflow-fold discipline as ScopedLedger: the first
// MaxScopes scopes get a dedicated recorder (own ring, own refractory
// state, own bundles), later scopes share one overflow recorder, so
// bundle retention and metric cardinality stay bounded no matter how many
// tenants register.
type ScopedRecorder struct {
	scopeSet[*Recorder]
	cfg       RecorderConfig
	subs      []func(*IncidentBundle) // applied to every scope, current and future
	onCapture func(seconds float64)   // likewise
	// retired tallies keep Captured/Suppressed monotonic after Release.
	retiredCaptured   map[TriggerKind]int64
	retiredSuppressed int64
}

// NewScopedRecorder builds a scoped recorder around a template
// configuration (its Scope field is ignored; each scope stamps its own).
// maxScopes caps the dedicated recorders (minimum 1).
func NewScopedRecorder(cfg RecorderConfig, maxScopes int) (*ScopedRecorder, error) {
	cfg.Scope = ""
	s := &ScopedRecorder{cfg: cfg}
	if err := s.init(maxScopes); err != nil {
		return nil, err
	}
	if _, err := NewRecorder(cfg); err != nil { // validate + surface defaults early
		return nil, err
	}
	return s, nil
}

// Config returns the template configuration shared by every scope.
func (s *ScopedRecorder) Config() RecorderConfig { return s.cfg }

// Scope returns the named scope's recorder, creating it on first use with
// the given overrides. Once the cap is reached, every new scope returns
// the shared overflow recorder (whose triggers keep the template
// thresholds — folded tenants share its refractory budget too).
func (s *ScopedRecorder) Scope(name string, sc RecorderScopeConfig) *Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(name, func(scope string) *Recorder {
		cfg := s.cfg
		cfg.Scope = scope
		if scope != OverflowScope {
			if sc.WarnThreshold > 0 {
				cfg.WarnThreshold = sc.WarnThreshold
			}
			if sc.Ledger != nil {
				cfg.Ledger = sc.Ledger
			}
		}
		rec, _ := NewRecorder(cfg) // template already validated
		for _, fn := range s.subs {
			rec.Subscribe(fn)
		}
		rec.OnCapture(s.onCapture)
		return rec
	})
}

// Release retires the named scope (a removed tenant): its recorder drops
// out of Scopes/Bundles and the cardinality cap slot is freed for a future
// scope. Lifetime captured/suppressed tallies are retained so the summed
// counters stay monotonic; the scope's retained bundles are discarded with
// it (subscribers already saw everything collected). Releasing a folded
// scope decrements Folded and leaves the overflow recorder untouched.
func (s *ScopedRecorder) Release(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.releaseLocked(name)
	if !ok {
		return
	}
	if s.retiredCaptured == nil {
		s.retiredCaptured = make(map[TriggerKind]int64)
	}
	for _, kind := range TriggerKinds {
		s.retiredCaptured[kind] += rec.Captured(kind)
	}
	s.retiredSuppressed += rec.Suppressed()
}

// Subscribe registers fn on every scope, existing and future.
func (s *ScopedRecorder) Subscribe(fn func(*IncidentBundle)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.subs = append(s.subs, fn)
	recs := s.distinctLocked()
	s.mu.Unlock()
	for _, rec := range recs {
		rec.Subscribe(fn)
	}
}

// OnCapture registers fn (see Recorder.OnCapture) on every scope, existing
// and future; a later call replaces fn.
func (s *ScopedRecorder) OnCapture(fn func(seconds float64)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onCapture = fn
	recs := s.distinctLocked()
	s.mu.Unlock()
	for _, rec := range recs {
		rec.OnCapture(fn)
	}
}

// distinct snapshots the recorder set under the lock.
func (s *ScopedRecorder) distinct() []*Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.distinctLocked()
}

// Collect captures pending triggers on every scope, in registration
// order. Call under the fleet's evaluation exclusion.
func (s *ScopedRecorder) Collect() {
	for _, rec := range s.distinct() {
		rec.Collect()
	}
}

// Flush flushes every scope after the fleet has quiesced.
func (s *ScopedRecorder) Flush() {
	for _, rec := range s.distinct() {
		rec.Flush()
	}
}

// Captured sums bundles of the given trigger kind across scopes,
// including scopes since retired by Release.
func (s *ScopedRecorder) Captured(kind TriggerKind) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	n := s.retiredCaptured[kind]
	recs := s.distinctLocked()
	s.mu.Unlock()
	for _, rec := range recs {
		n += rec.Captured(kind)
	}
	return n
}

// Suppressed sums refractory-suppressed triggers across scopes, including
// scopes since retired by Release.
func (s *ScopedRecorder) Suppressed() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	n := s.retiredSuppressed
	recs := s.distinctLocked()
	s.mu.Unlock()
	for _, rec := range recs {
		n += rec.Suppressed()
	}
	return n
}

// Bundles returns every retained bundle across scopes, ordered by trigger
// time, then scope, then sequence.
func (s *ScopedRecorder) Bundles() []*IncidentBundle {
	var out []*IncidentBundle
	for _, rec := range s.distinct() {
		out = append(out, rec.Bundles()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Bundle returns the retained bundle with the given ID from any scope.
func (s *ScopedRecorder) Bundle(id string) *IncidentBundle {
	for _, rec := range s.distinct() {
		if b := rec.Bundle(id); b != nil {
			return b
		}
	}
	return nil
}
