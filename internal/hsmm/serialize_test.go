package hsmm

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestClassifierSerializationRoundTrip(t *testing.T) {
	g := stats.NewRNG(51)
	clf, err := TrainClassifier(genFailureSeqs(g, 15), genNonFailureSeqs(g, 15),
		Config{States: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	clf.Threshold = 0.42

	var buf bytes.Buffer
	if err := SaveClassifier(&buf, clf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold != 0.42 {
		t.Fatalf("threshold = %g", loaded.Threshold)
	}
	// The restored classifier must produce identical scores.
	probe := genFailureSeqs(g, 5)
	for _, seq := range probe {
		want, err := clf.Score(seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Score(seq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("score drift after round trip: %g vs %g", got, want)
		}
	}
	// Unknown symbols must behave identically too (catch-all slot intact).
	unseen := genFailureSeqs(g, 1)[0]
	for i := range unseen.Types {
		unseen.Types[i] = 9000 + i
	}
	want, _ := clf.Score(unseen)
	got, _ := loaded.Score(unseen)
	if math.Abs(want-got) > 1e-12 {
		t.Fatalf("unknown-symbol score drift: %g vs %g", got, want)
	}
}

func TestModelUnmarshalValidation(t *testing.T) {
	g := stats.NewRNG(53)
	m, err := Fit(genFailureSeqs(g, 8), Config{States: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(map[string]interface{})) string {
		var dto map[string]interface{}
		if err := json.Unmarshal(good, &dto); err != nil {
			t.Fatal(err)
		}
		mutate(dto)
		out, err := json.Marshal(dto)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	cases := map[string]string{
		"zero states":     corrupt(func(d map[string]interface{}) { d["states"] = 0 }),
		"bad family":      corrupt(func(d map[string]interface{}) { d["family"] = "weird" }),
		"short logPi":     corrupt(func(d map[string]interface{}) { d["logPi"] = []float64{0} }),
		"dup alphabet":    corrupt(func(d map[string]interface{}) { d["alphabet"] = []int{1, 1, 1} }),
		"not JSON at all": "{",
	}
	for name, in := range cases {
		var out Model
		if err := json.Unmarshal([]byte(in), &out); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestLoadClassifierErrors(t *testing.T) {
	if _, err := LoadClassifier(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	var empty Classifier
	if _, err := empty.MarshalJSON(); err == nil {
		t.Fatal("empty classifier marshaled")
	}
}

// TestLoadClassifierRefusesMalformedModels: a classifier file whose
// duration parameters no density has, whose numbers are not finite, or
// which holds a number as null or not at all, is refused by LoadClassifier
// with an error naming the field (and the state), where it used to load —
// scoring every window −Inf, or reading the null as 0 — with a nil error. A
// well-formed file of either duration family loads and scores bit for bit
// as the classifier that was saved.
func TestLoadClassifierRefusesMalformedModels(t *testing.T) {
	g := stats.NewRNG(57)
	failure, nonFailure := genFailureSeqs(g, 10), genNonFailureSeqs(g, 10)
	save := func(family DurationFamily) (*Classifier, string) {
		clf, err := TrainClassifier(failure, nonFailure, Config{States: 3, Family: family, MaxIter: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveClassifier(&buf, clf); err != nil {
			t.Fatal(err)
		}
		return clf, buf.String()
	}
	logNormal, lnFile := save(FamilyLogNormal)
	exponential, expFile := save(FamilyExponential)

	probes := append(genFailureSeqs(g, 4), genNonFailureSeqs(g, 4)...)
	for _, c := range []struct {
		clf  *Classifier
		file string
	}{{logNormal, lnFile}, {exponential, expFile}} {
		loaded, err := LoadClassifier(strings.NewReader(c.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range probes {
			want, err := c.clf.Score(seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Score(seq)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: loaded classifier scores %g, saved one %g", c.clf.Failure.Family(), got, want)
			}
		}
	}

	// setDuration rewrites one field of the non-failure model's state 1;
	// with no value it deletes the field.
	setDuration := func(file, field string, v ...any) string {
		var dto map[string]any
		if err := json.Unmarshal([]byte(file), &dto); err != nil {
			t.Fatal(err)
		}
		var model map[string]any
		if err := json.Unmarshal(mustMarshal(t, dto["nonFailure"]), &model); err != nil {
			t.Fatal(err)
		}
		d := model["durations"].([]any)[1].(map[string]any)
		if len(v) == 0 {
			delete(d, field)
		} else {
			d[field] = v[0]
		}
		dto["nonFailure"] = model
		return string(mustMarshal(t, dto))
	}
	// setThreshold does the same to the classifier's threshold.
	setThreshold := func(v ...any) string {
		var dto map[string]any
		if err := json.Unmarshal([]byte(lnFile), &dto); err != nil {
			t.Fatal(err)
		}
		if len(v) == 0 {
			delete(dto, "threshold")
		} else {
			dto["threshold"] = v[0]
		}
		return string(mustMarshal(t, dto))
	}
	// nullFirst writes null over the first number under key in the file
	// (an array's first element).
	nullFirst := func(file, key string) string {
		loc := regexp.MustCompile(`"` + key + `":(\[?)-?[0-9][0-9.eE+-]*`).FindStringSubmatchIndex(file)
		if loc == nil {
			t.Fatalf("no number under %q", key)
		}
		return file[:loc[0]] + `"` + key + `":` + file[loc[2]:loc[3]] + "null" + file[loc[1]:]
	}
	for _, c := range []struct {
		name, file, want string
	}{
		{"zero sigma", setDuration(lnFile, "sigma", 0), "state 1: lognormal sigma 0"},
		{"negative sigma", setDuration(lnFile, "sigma", -1), "state 1: lognormal sigma -1"},
		{"zero rate", setDuration(expFile, "mu", 0), "state 1: exponential rate mu 0"},
		{"negative rate", setDuration(expFile, "mu", -2), "state 1: exponential rate mu -2"},
		{"overflowing sigma", strings.Replace(setDuration(lnFile, "sigma", 7.25), "7.25", "1e400", 1), "1e400"},
		{"NaN mu", strings.Replace(setDuration(lnFile, "mu", 7.25), "7.25", "NaN", 1), "invalid character"},
		{"infinite logPi", strings.Replace(lnFile, `"logPi":[`, `"logPi":[1e999,`, 1), "1e999"},
		{"first mu null", nullFirst(lnFile, "mu"), "state 0: duration mu is null or missing"},
		{"null sigma", setDuration(lnFile, "sigma", nil), "state 1: duration sigma is null or missing"},
		{"missing mu", setDuration(expFile, "mu"), "state 1: duration mu is null or missing"},
		{"null threshold", setThreshold(nil), "threshold is null or missing"},
		{"missing threshold", setThreshold(), "threshold is null or missing"},
		{"null symbol", nullFirst(lnFile, "alphabet"), "alphabet[0] is null or missing"},
	} {
		_, err := LoadClassifier(strings.NewReader(c.file))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadClassifier error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHardZeroRoundTrip: a model that rules a transition out (logA[0][1] =
// −Inf, a hard zero) saves with the zero written as null, reloads with −Inf
// in its place — not the 0, probability 1, a null read into a float64 would
// become — and scores every window bit for bit as the saved one. NaN and
// +Inf are still no log-probability: saving one fails.
func TestHardZeroRoundTrip(t *testing.T) {
	g := stats.NewRNG(59)
	clf, err := TrainClassifier(genFailureSeqs(g, 10), genNonFailureSeqs(g, 10),
		Config{States: 3, MaxIter: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clf.Failure.logA[0][1] = math.Inf(-1)
	clf.Failure.refreshKernel()

	var buf bytes.Buffer
	if err := SaveClassifier(&buf, clf); err != nil {
		t.Fatalf("SaveClassifier with a hard zero: %v", err)
	}
	if !strings.Contains(buf.String(), "null") {
		t.Fatalf("saved file has no null for the hard zero:\n%s", buf.String())
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Failure.logA[0][1]; !math.IsInf(got, -1) {
		t.Fatalf("reloaded logA[0][1] = %g, want -Inf", got)
	}
	for _, seq := range append(genFailureSeqs(g, 4), genNonFailureSeqs(g, 4)...) {
		want, err := clf.Score(seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Score(seq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reloaded classifier scores %g, saved one %g", got, want)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		clf.Failure.logA[0][1] = bad
		if err := SaveClassifier(io.Discard, clf); err == nil {
			t.Errorf("SaveClassifier with logA[0][1] = %g: nil error", bad)
		}
	}
}

// FuzzLoadClassifier: a model file either is refused or is a model. A file
// LoadClassifier accepts saves, and the saved file reloads and saves again to
// the same bytes — a null (−Inf, a hard zero) included — and the reloaded
// classifier scores a fixed window to the same bits as the first one did; no
// accepted file scores that window NaN. Seeded from classifiers the tests
// train and save. Run long-form with:
// go test -run '^$' -fuzz FuzzLoadClassifier ./internal/hsmm/
func FuzzLoadClassifier(f *testing.F) {
	g := stats.NewRNG(61)
	clf, err := TrainClassifier(genFailureSeqs(g, 8), genNonFailureSeqs(g, 8), Config{States: 2, MaxIter: 5, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveClassifier(&buf, clf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	clf.Failure.logA[0][1] = math.Inf(-1) // a hard zero, saved as null
	clf.Failure.refreshKernel()
	buf.Reset()
	if err := SaveClassifier(&buf, clf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	window := genFailureSeqs(g, 1)[0]
	window.Types = append(window.Types[:len(window.Types)-1], 9000) // and a symbol no model knows
	f.Fuzz(func(t *testing.T, file []byte) {
		first, err := LoadClassifier(bytes.NewReader(file))
		if err != nil {
			return
		}
		var saved, again bytes.Buffer
		if err := SaveClassifier(&saved, first); err != nil {
			t.Fatalf("an accepted file does not save: %v\n%s", err, file)
		}
		reloaded, err := LoadClassifier(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a saved file does not reload: %v\n%s", err, saved.Bytes())
		}
		if err := SaveClassifier(&again, reloaded); err != nil || !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("save → load → save changed the file (%v):\n%s\n%s", err, saved.Bytes(), again.Bytes())
		}
		want, err := first.Score(window)
		if err != nil {
			t.Fatalf("an accepted file scores the window: %v\n%s", err, file)
		}
		if got, err := reloaded.Score(window); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reloaded classifier scores %g (%v), the loaded one %g", got, err, want)
		}
	})
}
