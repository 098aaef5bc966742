package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRowsRenderInOneOrder: the results whose rows come from a map render
// the same table every time, the mapped rows sorted by name — one binary
// run twice must print the same bytes.
func TestRowsRenderInOneOrder(t *testing.T) {
	results := []struct {
		name, prefix string // prefix marks the rows that come from the map
		rows         func() []Row
	}{
		{"meta", "base ", MetaResult{
			BaseAUC:    map[string]float64{"rate": 0.6, "hsmm": 0.8, "trend": 0.7, "ubf": 0.75},
			StackedAUC: 0.85,
		}.Rows},
		{"diagnosis", "cause ", DiagnosisResult{
			Diagnosed: 9, Correct: 7,
			PerCause: map[string]float64{"overload": 0.5, "burst": 1, "leak": 0.75},
		}.Rows},
	}
	for _, r := range results {
		render := func() string {
			var b bytes.Buffer
			Fprint(&b, r.name, r.rows())
			return b.String()
		}
		want := render()
		for i := 0; i < 10; i++ {
			if got := render(); got != want {
				t.Fatalf("%s: two renders differ:\n%s\n---\n%s", r.name, want, got)
			}
		}
		var mapped []string
		for _, row := range r.rows() {
			if strings.HasPrefix(row.Name, r.prefix) {
				mapped = append(mapped, row.Name)
			}
		}
		if len(mapped) < 3 || !slices.IsSorted(mapped) {
			t.Fatalf("%s: mapped rows %q, want all of them sorted", r.name, mapped)
		}
	}
}
