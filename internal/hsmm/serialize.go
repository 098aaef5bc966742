package hsmm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// modelJSON is the stable on-disk representation of a Model. Its plain
// numbers are pointers, nil where the file holds null or nothing, which
// encoding/json would read into a number as 0: the loader refuses them.
type modelJSON struct {
	States   int            `json:"states"`
	Alphabet []*int         `json:"alphabet"` // event types, in emission-index order
	Family   string         `json:"family"`
	LogPi    []logProb      `json:"logPi"`
	LogA     [][]logProb    `json:"logA"`
	LogB     [][]logProb    `json:"logB"`
	Dur      []durationJSON `json:"durations"`
}

// logProb is one log-probability on disk. JSON has no −Inf, the log of a hard
// zero (a transition or emission the model rules out), so it is written as
// null; null is read back as −Inf, never as the 0 (probability 1) a plain
// float64 would silently take. NaN and +Inf are no log-probability: writing
// one fails, and no JSON number reads as one.
type logProb float64

func (p logProb) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(p), -1) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(p))
}

func (p *logProb) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*p = logProb(math.Inf(-1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(p))
}

// row and rows convert parameters to and from their disk form.
func row[To, From ~float64](r []From) []To {
	out := make([]To, len(r))
	for i, v := range r {
		out[i] = To(v)
	}
	return out
}

func rows[To, From ~float64](rs [][]From) [][]To {
	out := make([][]To, len(rs))
	for i, r := range rs {
		out[i] = row[To](r)
	}
	return out
}

type durationJSON struct {
	Family string   `json:"family"`
	Mu     *float64 `json:"mu"`
	Sigma  *float64 `json:"sigma"`
}

func familyFromString(s string) (DurationFamily, error) {
	switch s {
	case "lognormal":
		return FamilyLogNormal, nil
	case "exponential":
		return FamilyExponential, nil
	case "none":
		return FamilyNone, nil
	default:
		return 0, fmt.Errorf("%w: unknown duration family %q", ErrModel, s)
	}
}

// MarshalJSON serializes the trained model.
func (m *Model) MarshalJSON() ([]byte, error) {
	alphabet := make([]*int, len(m.symbols))
	for typ, idx := range m.symbols {
		if idx < 0 || idx >= len(alphabet) {
			return nil, fmt.Errorf("%w: corrupt symbol table", ErrModel)
		}
		alphabet[idx] = &typ
	}
	dur := make([]durationJSON, len(m.dur))
	for i := range m.dur {
		d := &m.dur[i]
		dur[i] = durationJSON{Family: d.family.String(), Mu: &d.mu, Sigma: &d.sigma}
	}
	return json.Marshal(modelJSON{
		States:   m.n,
		Alphabet: alphabet,
		Family:   m.family.String(),
		LogPi:    row[logProb](m.logPi),
		LogA:     rows[logProb](m.logA),
		LogB:     rows[logProb](m.logB),
		Dur:      dur,
	})
}

// UnmarshalJSON restores a model serialized with MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var dto modelJSON
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("%w: %v", ErrModel, err)
	}
	if dto.States < 1 {
		return fmt.Errorf("%w: %d states", ErrModel, dto.States)
	}
	family, err := familyFromString(dto.Family)
	if err != nil {
		return err
	}
	wantM := len(dto.Alphabet) + 1
	if len(dto.LogPi) != dto.States || len(dto.LogA) != dto.States ||
		len(dto.LogB) != dto.States || len(dto.Dur) != dto.States {
		return fmt.Errorf("%w: inconsistent parameter shapes", ErrModel)
	}
	for i := 0; i < dto.States; i++ {
		if len(dto.LogA[i]) != dto.States {
			return fmt.Errorf("%w: logA row %d has %d entries", ErrModel, i, len(dto.LogA[i]))
		}
		if len(dto.LogB[i]) != wantM {
			return fmt.Errorf("%w: logB row %d has %d entries, want %d", ErrModel, i, len(dto.LogB[i]), wantM)
		}
	}
	// Each row is a distribution, so every window scores finite: an initial
	// state and a successor always carry mass, and every symbol, the
	// catch-all included, can be emitted from every state.
	for i := 0; i < dto.States; i++ {
		if err := checkDistribution(fmt.Sprintf("logA[%d]", i), dto.LogA[i], false); err != nil {
			return err
		}
		if err := checkDistribution(fmt.Sprintf("logB[%d]", i), dto.LogB[i], true); err != nil {
			return err
		}
	}
	if err := checkDistribution("logPi", dto.LogPi, false); err != nil {
		return err
	}
	symbols := make(map[int]int, len(dto.Alphabet))
	for idx, typ := range dto.Alphabet {
		if typ == nil {
			return fmt.Errorf("%w: alphabet[%d] is null or missing", ErrModel, idx)
		}
		if _, dup := symbols[*typ]; dup {
			return fmt.Errorf("%w: duplicate alphabet symbol %d", ErrModel, *typ)
		}
		symbols[*typ] = idx
	}
	dur := make([]durationDist, dto.States)
	for i, d := range dto.Dur {
		f, err := familyFromString(d.Family)
		if err != nil {
			return err
		}
		switch {
		case d.Mu == nil:
			return fmt.Errorf("%w: state %d: duration mu is null or missing", ErrModel, i)
		case d.Sigma == nil:
			return fmt.Errorf("%w: state %d: duration sigma is null or missing", ErrModel, i)
		}
		mu, sigma := *d.Mu, *d.Sigma
		// Parameters outside the range Fit produces are refused: a σ under
		// Fit's floor, a median delay no float64 holds or a rate above
		// 1/minDelay can make a delay's log-density −Inf, and a window both
		// models rule out that way scores NaN. (encoding/json refuses NaN and
		// ±Inf before they get here.)
		switch {
		case f == FamilyLogNormal && !(sigma >= minSigma):
			return fmt.Errorf("%w: state %d: lognormal sigma %g, want >= %g", ErrModel, i, sigma, minSigma)
		case f == FamilyLogNormal && !(math.Abs(mu) <= maxLogDelay):
			return fmt.Errorf("%w: state %d: lognormal mu %g, want within ±%g", ErrModel, i, mu, maxLogDelay)
		case f == FamilyExponential && !(mu > 0 && mu <= 1/minDelay):
			return fmt.Errorf("%w: state %d: exponential rate mu %g, want in (0, %g]", ErrModel, i, mu, 1/minDelay)
		}
		dur[i] = durationDist{family: f, mu: mu, sigma: sigma}
	}
	*m = Model{
		n:       dto.States,
		m:       wantM,
		symbols: symbols,
		logPi:   row[float64](dto.LogPi),
		logA:    rows[float64](dto.LogA),
		logB:    rows[float64](dto.LogB),
		dur:     dur,
		family:  family,
	}
	m.refreshKernel()
	return nil
}

// maxLogDelay is the log of the longest delay a float64 holds.
var maxLogDelay = math.Log(math.MaxFloat64)

// minLogProb is the log of the smallest normal float64: below it a
// probability is all but 0, and a sum of a few such logs overflows to −Inf.
var minLogProb = math.Log(0x1p-1022)

// checkDistribution refuses a row of log-probabilities that can be no
// distribution: one with an entry above 0 (a probability above 1), or with no
// entry of at least minLogProb (no mass); with finite, one that has any entry
// below minLogProb, null (−Inf) included — an outcome it rules out.
func checkDistribution(name string, row []logProb, finite bool) error {
	mass := false
	for j, p := range row {
		v := float64(p)
		if v > 0 || finite && !(v >= minLogProb) {
			return fmt.Errorf("%w: %s[%d] = %g, want a log-probability in [%.6g, 0]", ErrModel, name, j, v, minLogProb)
		}
		mass = mass || v >= minLogProb
	}
	if !mass {
		return fmt.Errorf("%w: %s has no mass: every entry is below %.6g or null", ErrModel, name, minLogProb)
	}
	return nil
}

// classifierJSON is the stable representation of a Classifier.
type classifierJSON struct {
	Failure    json.RawMessage `json:"failure"`
	NonFailure json.RawMessage `json:"nonFailure"`
	Threshold  *float64        `json:"threshold"` // a pointer, like modelJSON's numbers
}

// MarshalJSON serializes the two-model classifier.
func (c *Classifier) MarshalJSON() ([]byte, error) {
	if c.Failure == nil || c.NonFailure == nil {
		return nil, fmt.Errorf("%w: classifier missing models", ErrModel)
	}
	f, err := json.Marshal(c.Failure)
	if err != nil {
		return nil, err
	}
	n, err := json.Marshal(c.NonFailure)
	if err != nil {
		return nil, err
	}
	return json.Marshal(classifierJSON{Failure: f, NonFailure: n, Threshold: &c.Threshold})
}

// UnmarshalJSON restores a classifier.
func (c *Classifier) UnmarshalJSON(data []byte) error {
	var dto classifierJSON
	if err := json.Unmarshal(data, &dto); err != nil {
		return fmt.Errorf("%w: %v", ErrModel, err)
	}
	if dto.Threshold == nil {
		return fmt.Errorf("%w: threshold is null or missing", ErrModel)
	}
	var failure, nonFailure Model
	if err := json.Unmarshal(dto.Failure, &failure); err != nil {
		return fmt.Errorf("failure model: %w", err)
	}
	if err := json.Unmarshal(dto.NonFailure, &nonFailure); err != nil {
		return fmt.Errorf("non-failure model: %w", err)
	}
	*c = Classifier{Failure: &failure, NonFailure: &nonFailure, Threshold: *dto.Threshold}
	return nil
}

// SaveClassifier writes the classifier to w as JSON.
func SaveClassifier(w io.Writer, c *Classifier) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// LoadClassifier reads a classifier written by SaveClassifier.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var c Classifier
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrModel, err)
	}
	return &c, nil
}
