// Package diagnose implements pre-failure diagnosis (Sect. 2: "Evaluation
// might also include diagnosis in order to identify the components that
// cause the system to be failure-prone"). Unlike traditional diagnosis it
// runs *before* any failure has occurred: given the error window that
// triggered a failure warning, it ranks components by how strongly their
// recent error behaviour resembles the pre-failure patterns seen in
// training — the paper's footnote 3 challenge, and the "online root cause
// analysis" research issue of Sect. 7.
package diagnose

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/eventlog"
)

// ErrDiagnose is wrapped by all package errors.
var ErrDiagnose = errors.New("diagnose: invalid operation")

// Suspect is one ranked diagnosis candidate.
type Suspect struct {
	// Component is the suspected component ID.
	Component string
	// Score is the accumulated pre-failure evidence (log-ratio sum);
	// higher means more suspicious.
	Score float64
	// Events is the number of window events attributed to the component.
	Events int
}

// Diagnoser ranks components from learned pre-failure error signatures.
type Diagnoser struct {
	componentLR map[string]float64 // component presence log-ratio
	typeLR      map[int]float64    // event-type presence log-ratio
	unseen      float64
}

// CollectWindowRanges assembles the pre-failure and reference error
// windows used for training as [lo, hi) column index ranges into the log
// — the same Δtd/Δtl geometry as the Fig. 6 extraction, but two binary
// searches per window instead of a copied []Event.
func CollectWindowRanges(l *eventlog.Log, failureTimes []float64, cfg eventlog.ExtractConfig) (failure, nonFailure [][2]int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if l.Len() == 0 {
		return nil, nil, fmt.Errorf("%w: empty log", ErrDiagnose)
	}
	sorted := append([]float64(nil), failureTimes...)
	sort.Float64s(sorted)
	for _, tf := range sorted {
		end := tf - cfg.LeadTime
		lo, hi := l.ScanWindow(end-cfg.DataWindow, end)
		if hi-lo >= cfg.MinEvents && hi > lo {
			failure = append(failure, [2]int{lo, hi})
		}
	}
	guard := cfg.NonFailureGuard
	if guard == 0 {
		guard = cfg.DataWindow + cfg.LeadTime
	}
	first := l.TimeAt(0)
	last := l.TimeAt(l.Len() - 1)
	for start := first; start+cfg.DataWindow <= last; start += cfg.NonFailureStride {
		point := start + cfg.DataWindow + cfg.LeadTime
		if nearFailure(point, sorted, guard) {
			continue
		}
		lo, hi := l.ScanWindow(start, start+cfg.DataWindow)
		if hi-lo >= cfg.MinEvents && hi > lo {
			nonFailure = append(nonFailure, [2]int{lo, hi})
		}
	}
	return failure, nonFailure, nil
}

func nearFailure(t float64, sorted []float64, guard float64) bool {
	i := sort.SearchFloat64s(sorted, t)
	if i < len(sorted) && sorted[i]-t < guard {
		return true
	}
	return i > 0 && t-sorted[i-1] < guard
}

// countPresenceRanges tallies, for every component ID and event type, the
// number of windows in which it appears at least once — column-native:
// component presence via a generation-stamped dense array over dictionary
// IDs, type presence via a reusable bitset (map fallback only for
// negative type IDs). No per-window maps, no event materialization.
func countPresenceRanges(l *eventlog.Log, ranges [][2]int) ([]float64, map[int]float64) {
	comps := make([]float64, l.ComponentCount())
	gen := make([]int, l.ComponentCount())
	types := make(map[int]float64)
	var typeSeen eventlog.TypeBitset
	var negSeen map[int]bool
	ids := l.ComponentIDs()
	tcs := l.TypeCodes()
	for w, r := range ranges {
		stamp := w + 1
		typeSeen.Reset()
		for k := range negSeen {
			delete(negSeen, k)
		}
		for i := r[0]; i < r[1]; i++ {
			c := ids[i]
			if gen[c] != stamp {
				gen[c] = stamp
				comps[c]++
			}
			t := int(tcs[i])
			if t >= 0 {
				if !typeSeen.Has(t) {
					typeSeen.Add(t)
					types[t]++
				}
			} else {
				if negSeen == nil {
					negSeen = make(map[int]bool)
				}
				if !negSeen[t] {
					negSeen[t] = true
					types[t]++
				}
			}
		}
	}
	return comps, types
}

// TrainOnRanges learns component and event-type presence log-ratios, with
// Laplace smoothing, from labeled windows of l as CollectWindowRanges
// returns them. Components present in no window fall back to the unseen
// ratio.
func TrainOnRanges(l *eventlog.Log, failure, nonFailure [][2]int, smoothing float64) (*Diagnoser, error) {
	if len(failure) == 0 || len(nonFailure) == 0 {
		return nil, fmt.Errorf("%w: training needs both classes (%d/%d)",
			ErrDiagnose, len(failure), len(nonFailure))
	}
	if smoothing <= 0 {
		smoothing = 1
	}
	fc, ft := countPresenceRanges(l, failure)
	nc, nt := countPresenceRanges(l, nonFailure)
	nf, nn := float64(len(failure)), float64(len(nonFailure))
	d := &Diagnoser{
		componentLR: make(map[string]float64),
		typeLR:      make(map[int]float64),
		unseen:      math.Log(smoothing / (nf + 2*smoothing) * (nn + 2*smoothing) / smoothing),
	}
	for id := range fc {
		if fc[id] == 0 && nc[id] == 0 {
			continue
		}
		pf := (fc[id] + smoothing) / (nf + 2*smoothing)
		pn := (nc[id] + smoothing) / (nn + 2*smoothing)
		d.componentLR[l.ComponentName(uint32(id))] = math.Log(pf / pn)
	}
	for t := range unionInt(ft, nt) {
		pf := (ft[t] + smoothing) / (nf + 2*smoothing)
		pn := (nt[t] + smoothing) / (nn + 2*smoothing)
		d.typeLR[t] = math.Log(pf / pn)
	}
	return d, nil
}

func unionInt(a, b map[int]float64) map[int]bool {
	out := make(map[int]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// DiagnoseRange ranks the components present in the warning window — the
// log events in [from, to) — by their accumulated pre-failure evidence: each
// event contributes its component's and its type's log-ratio to its
// component's score. An empty window yields no suspects. The window is read
// straight off the columns (the component strings scored are shared
// dictionary entries, never copied).
func (d *Diagnoser) DiagnoseRange(l *eventlog.Log, from, to float64) []Suspect {
	lo, hi := l.ScanWindow(from, to)
	scores := make(map[string]float64)
	counts := make(map[string]int)
	ids := l.ComponentIDs()
	tcs := l.TypeCodes()
	for i := lo; i < hi; i++ {
		comp := l.ComponentName(ids[i])
		lr, ok := d.componentLR[comp]
		if !ok {
			lr = d.unseen
		}
		tlr, ok := d.typeLR[int(tcs[i])]
		if !ok {
			tlr = d.unseen
		}
		scores[comp] += lr + tlr
		counts[comp]++
	}
	out := make([]Suspect, 0, len(scores))
	for c, s := range scores {
		out = append(out, Suspect{Component: c, Score: s, Events: counts[c]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Component < out[j].Component
	})
	return out
}

// TopSuspectRange returns the highest-ranked component for the log events
// in [from, to), or "" when the window is empty.
func (d *Diagnoser) TopSuspectRange(l *eventlog.Log, from, to float64) string {
	s := d.DiagnoseRange(l, from, to)
	if len(s) == 0 {
		return ""
	}
	return s[0].Component
}
