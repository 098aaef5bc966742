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
	g := stats.NewRNG(61)
	x, y := trainData(math.Sin, 80, g)
	net, err := Train(x, y, TrainConfig{NumKernels: 5, Candidates: 5, Refinements: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
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

func TestNetworkUnmarshalValidation(t *testing.T) {
	good := `{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0.1,0.2]}`
	var ok Network
	if err := json.Unmarshal([]byte(good), &ok); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"zero dim":         `{"dim":0,"kernels":[],"weights":[0]}`,
		"weight mismatch":  `{"dim":1,"kernels":[],"weights":[0,1]}`,
		"bad kernel width": `{"dim":1,"kernels":[{"Center":[0],"Width":0,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`,
		"kernel dim":       `{"dim":2,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`,
		"garbage":          `{`,
	}
	for name, in := range cases {
		var n Network
		if err := json.Unmarshal([]byte(in), &n); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// A number held as null, or not at all, is refused by name: encoding/json
	// alone reads either as 0.
	for _, c := range []struct{ in, want string }{
		{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0.25,null]}`, "weights[1]"},
		{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Mix":null,"Dir":[1]}],"weights":[0,1]}`, "kernel 0: Mix"},
		{`{"dim":1,"kernels":[{"Center":[0],"Width":1,"Dir":[1]}],"weights":[0,1]}`, "kernel 0: Mix"},
		{`{"dim":1,"kernels":[{"Center":[0],"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`, "Width"},
		{`{"dim":1,"kernels":[{"Center":[null],"Width":1,"Mix":0.5,"Dir":[1]}],"weights":[0,1]}`, "Center[0]"},
		{`{"dim":2,"kernels":[{"Center":[0,1],"Width":1,"Mix":0.5,"Dir":[1,null]}],"weights":[0,1]}`, "Dir[1]"},
	} {
		var n Network
		if err := json.Unmarshal([]byte(c.in), &n); err == nil || !strings.Contains(err.Error(), c.want+" is null or missing") {
			t.Errorf("%s: error %v, want one naming %s", c.in, err, c.want)
		}
	}
	if _, err := LoadNetwork(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}
