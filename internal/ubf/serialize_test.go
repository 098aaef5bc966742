package ubf

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestNetworkSerializationRoundTrip: a saved network loads and predicts bit
// for bit as the one saved; the same file with a weight written as null is
// refused, naming the weight.
func TestNetworkSerializationRoundTrip(t *testing.T) {
	net := sineNetwork(t)
	var buf bytes.Buffer
	if err := SaveNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	file := buf.String()
	nulled := regexp.MustCompile(`("weights":\[[^,]+,)[^,]+`).ReplaceAllString(file, "${1}null")
	if nulled == file {
		t.Fatalf("no second weight in the saved file:\n%s", file)
	}
	if _, err := LoadNetwork(strings.NewReader(nulled)); err == nil || !strings.Contains(err.Error(), "weights[1] is null or missing") {
		t.Fatalf("LoadNetwork with a null weight: error %v, want one naming weights[1]", err)
	}
	loaded, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []float64{-2, -0.5, 0, 1.3, 2.9} {
		want, err := net.Predict([]float64{probe})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Predict([]float64{probe})
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("prediction drift at %g: %g vs %g", probe, got, want)
		}
	}
	if loaded.Dim() != 1 {
		t.Fatalf("Dim = %d", loaded.Dim())
	}
}

// sineNetwork is the network the round-trip test saves: five kernels fitted
// to a sine.
func sineNetwork(tb testing.TB) *Network {
	x, y := trainData(math.Sin, 80, stats.NewRNG(61))
	net, err := Train(x, y, TrainConfig{NumKernels: 5, Candidates: 5, Refinements: 2, Seed: 14})
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// refusedNetworks are network files the loader refuses, by what is wrong.
var refusedNetworks = map[string]string{
	"zero dim":         `{"dim":0,"kernels":[],"weights":[0]}`,
	"weight mismatch":  `{"dim":1,"kernels":[],"weights":[0,1]}`,
	"bad kernel width": `{"dim":1,"kernels":[{"Center":[0],"Width":0,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`,
	"kernel dim":       `{"dim":2,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`,
	"garbage":          `{`,
}

// nullNetworks are network files with a number held as null, or not at
// all, and the field the refusal must name: encoding/json alone reads either
// as 0.
var nullNetworks = []struct{ in, want string }{
	{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0.25,null]}`, "weights[1]"},
	{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":null,"Dir":[1]}],"weights":[0,1]}`, "kernel 0: Mix"},
	{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Dir":[1]}],"weights":[0,1]}`, "kernel 0: Mix"},
	{`{"dim":1,"kernels":[{"Center":[0],"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`, "Width"},
	{`{"dim":1,"kernels":[{"Center":[null],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`, "Center[0]"},
	{`{"dim":2,"kernels":[{"Center":[0,1],"Width":1,"Mix":0.5,"Dir":[1,null]}],"weights":[0,1]}`, "Dir[1]"},
}

func TestNetworkUnmarshalValidation(t *testing.T) {
	good := `{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0.1,0.2]}`
	var ok Network
	if err := json.Unmarshal([]byte(good), &ok); err != nil {
		t.Fatal(err)
	}
	for name, in := range refusedNetworks {
		var n Network
		if err := json.Unmarshal([]byte(in), &n); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	for _, c := range nullNetworks {
		var n Network
		if err := json.Unmarshal([]byte(c.in), &n); err == nil || !strings.Contains(err.Error(), c.want+" is null or missing") {
			t.Errorf("%s: error %v, want one naming %s", c.in, err, c.want)
		}
	}
	if _, err := LoadNetwork(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

// networkFields are the keys of a network file: a refusal of a well-formed
// JSON object names at least one of them.
var networkFields = regexp.MustCompile(`dim|kernels|weights|Center|Dir|Width|Mix`)

// FuzzLoadNetwork: an accepted network file saves, reloads and saves again
// to the same bytes, and the reloaded network scores a fixed window to the
// same bits as the first one did; no accepted file scores that window NaN. A
// file whose first JSON value is an object and that is refused is refused
// naming a field. Seeded from the round-trip test's network, the refused and
// null-field files of the validation test, and the hostile files in
// testdata/fuzz. Run long-form with:
// go test -run '^$' -fuzz FuzzLoadNetwork ./internal/ubf/
func FuzzLoadNetwork(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveNetwork(&buf, sineNetwork(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, in := range refusedNetworks {
		f.Add([]byte(in))
	}
	for _, c := range nullNetworks {
		f.Add([]byte(c.in))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		first, err := LoadNetwork(bytes.NewReader(file))
		if err != nil {
			var head json.RawMessage
			if json.NewDecoder(bytes.NewReader(file)).Decode(&head) == nil && head[0] == '{' && !networkFields.MatchString(err.Error()) {
				t.Fatalf("refused naming no field: %v\n%s", err, file)
			}
			return
		}
		var saved, again bytes.Buffer
		if err := SaveNetwork(&saved, first); err != nil {
			t.Fatalf("an accepted file does not save: %v\n%s", err, file)
		}
		reloaded, err := LoadNetwork(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a saved file does not reload: %v\n%s", err, saved.Bytes())
		}
		if err := SaveNetwork(&again, reloaded); err != nil || !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("save → load → save changed the file (%v):\n%s\n%s", err, saved.Bytes(), again.Bytes())
		}
		// Every kernel has Dim coordinates, so the window is no larger than
		// the file.
		window := make([]float64, first.Dim())
		for j := range window {
			window[j] = 3 * math.Sin(float64(j+1))
		}
		want, err := first.Predict(window)
		if err != nil || math.IsNaN(want) {
			t.Fatalf("an accepted file scores the window %g (%v):\n%s", want, err, file)
		}
		if got, err := reloaded.Predict(window); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reloaded network scores %g (%v), the loaded one %g", got, err, want)
		}
	})
}
