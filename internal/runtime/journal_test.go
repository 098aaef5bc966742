package runtime

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
)

// journalTail is an act tail journaling every layer of n, plus the combined
// row, into a ledger of its own over a 600 s matching window (lead time 300
// plus slack 300), and the score row its cycles hand it: n−1 layers quiet
// and one warning.
func journalTail(tb testing.TB, n int) (*ActTail, []float64) {
	tb.Helper()
	layers := make([]*core.Layer, n)
	names := make([]string, n)
	scores := make([]float64, n)
	for i := range layers {
		names[i] = fmt.Sprintf("layer%d", i)
		layers[i] = &core.Layer{Name: names[i], Threshold: 0.5}
		scores[i] = 0.1
	}
	scores[0] = 0.9
	ledger, err := obs.NewLedger(obs.LedgerConfig{LeadTime: 300, Slack: 300}, names...)
	if err != nil {
		tb.Fatal(err)
	}
	return &ActTail{Layers: layers, Ledger: ledger, JournalLayers: true}, scores
}

// journalCycle journals cycle i of a tail at a 60 s cadence, a failure
// every hundredth cycle, as a runtime's act stage does.
func journalCycle(t *ActTail, i int, scores []float64, cands []lifecycle.CandidateScore) {
	now := float64(i) * 60
	if i%100 == 99 {
		t.Ledger.RecordFailure(now - 1)
	}
	t.Journal(now, scores, cands, core.Decision{Warned: i%50 == 0, Confidence: 0.5})
}

// TestActTailJournalZeroAllocs holds a warmed act tail's journal — four
// layer rows, a shadow candidate's row and the combined row booked with the
// watermark advance — to zero allocations: the row numbers are resolved
// once and the verdict list is reused.
func TestActTailJournalZeroAllocs(t *testing.T) {
	tail, scores := journalTail(t, 4)
	cands := []lifecycle.CandidateScore{{Layer: "layer1", Name: lifecycle.CandidateName("layer1"), Score: 0.7, Threshold: 0.5}}
	i := 0
	for ; i < 200; i++ {
		journalCycle(tail, i, scores, cands)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		journalCycle(tail, i, scores, cands)
		i++
	}); allocs != 0 {
		t.Fatalf("warmed ActTail.Journal allocates %.1f objects a cycle, want 0", allocs)
	}
	snap := tail.Ledger.Snapshot()
	if len(snap.Layers) != 6 || snap.Layers[5].Layer != lifecycle.CandidateName("layer1") {
		t.Fatalf("ledger rows %+v, want four layers, combined and the candidate", snap.Layers)
	}
	if pending := snap.Layers[5].Pending; pending != 10 {
		t.Fatalf("candidate row has %d pending predictions, want the 10 inside the 600 s window", pending)
	}
}

// BenchmarkActTailJournal is one cycle's journal at a 60 s cadence over a
// 600 s window: rows=3 is a fleet tenant with a dedicated ledger scope (two
// layers and combined), rows=6 a six-row decision (five layers and
// combined; pfmbench's single_replay books five rows, four layers and
// combined).
func BenchmarkActTailJournal(b *testing.B) {
	for _, rows := range []int{3, 6} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			tail, scores := journalTail(b, rows-1)
			for i := 0; i < 200; i++ {
				journalCycle(tail, i, scores, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				journalCycle(tail, 200+i, scores, nil)
			}
		})
	}
}
