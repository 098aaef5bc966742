package changepoint

import (
	"testing"

	"repro/internal/stats"
)

func TestCUSUMDetectsShift(t *testing.T) {
	c, err := NewCUSUM(0, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(1)
	// In-control phase: no detection expected.
	for i := 0; i < 200; i++ {
		if c.Update(g.NormFloat64()) {
			t.Fatalf("false alarm at in-control sample %d", i)
		}
	}
	// Mean shifts by +3σ: detection within a few samples.
	detected := -1
	for i := 0; i < 50; i++ {
		if c.Update(3 + g.NormFloat64()) {
			detected = i
			break
		}
	}
	if detected < 0 || detected > 10 {
		t.Fatalf("shift detected at %d, want quickly", detected)
	}
}

func TestCUSUMDetectsDownwardShift(t *testing.T) {
	c, err := NewCUSUM(10, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(2)
	for i := 0; i < 100; i++ {
		if c.Update(10 + g.NormFloat64()) {
			t.Fatalf("false alarm at %d", i)
		}
	}
	detected := false
	for i := 0; i < 50; i++ {
		if c.Update(7 + g.NormFloat64()) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("downward shift missed")
	}
}

func TestCUSUMResetsAfterDetection(t *testing.T) {
	c, err := NewCUSUM(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Update(5) {
		t.Fatal("large jump not detected")
	}
	// After reset, a benign sample must not fire.
	if c.Update(0.1) {
		t.Fatal("fired immediately after reset")
	}
}

func TestCUSUMValidation(t *testing.T) {
	if _, err := NewCUSUM(0, -1, 5); err == nil {
		t.Fatal("negative drift accepted")
	}
	if _, err := NewCUSUM(0, 1, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestPageHinkleyDetectsIncrease(t *testing.T) {
	p, err := NewPageHinkley(0.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(3)
	for i := 0; i < 300; i++ {
		if p.Update(g.NormFloat64()) {
			t.Fatalf("false alarm at %d", i)
		}
	}
	detected := false
	for i := 0; i < 100; i++ {
		if p.Update(2 + g.NormFloat64()) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("mean increase missed")
	}
}

func TestPageHinkleyValidation(t *testing.T) {
	if _, err := NewPageHinkley(-1, 5); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := NewPageHinkley(0.1, 0); err == nil {
		t.Fatal("zero lambda accepted")
	}
}
