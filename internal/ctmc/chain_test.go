package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoState builds the classic up/down availability chain.
func twoState(t *testing.T, lambda, mu float64) *Chain {
	t.Helper()
	c := New("up", "down")
	if err := c.SetRate(0, 1, lambda); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(1, 0, mu); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSetRateValidation(t *testing.T) {
	c := New("a", "b")
	if err := c.SetRate(0, 0, 1); err == nil {
		t.Fatal("diagonal SetRate did not error")
	}
	if err := c.SetRate(0, 5, 1); err == nil {
		t.Fatal("out-of-range SetRate did not error")
	}
	if err := c.SetRate(0, 1, -2); err == nil {
		t.Fatal("negative rate did not error")
	}
	if err := c.SetRate(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN rate did not error")
	}
}

func TestSetRateRebalancesDiagonal(t *testing.T) {
	c := New("a", "b", "c")
	if err := c.SetRate(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(0, 0); got != -5 {
		t.Fatalf("diagonal = %g, want -5", got)
	}
	// Overwriting a rate must rebalance, not accumulate.
	if err := c.SetRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(0, 0); got != -4 {
		t.Fatalf("diagonal after overwrite = %g, want -4", got)
	}
}

func TestStateLookup(t *testing.T) {
	c := New("up", "down")
	if c.StateName(0) != "up" {
		t.Fatal("StateName wrong")
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	lambda, mu := 0.2, 1.5
	c := twoState(t, lambda, mu)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	wantUp := mu / (lambda + mu)
	if math.Abs(pi[0]-wantUp) > 1e-12 {
		t.Fatalf("π(up) = %g, want %g", pi[0], wantUp)
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-12 {
		t.Fatalf("π does not sum to 1: %v", pi)
	}
}

// Property: for random irreducible chains, the steady state satisfies
// πQ ≈ 0.
func TestSteadyStateBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		c := New(names...)
		// Dense positive rates guarantee irreducibility.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if err := c.SetRate(i, j, 0.05+rng.Float64()*3); err != nil {
					return false
				}
			}
		}
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		// πQ = 0 means Σ_i π_i q_ij = 0 for all j.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += pi[i] * c.Rate(i, j)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyStateAbsorbingFails(t *testing.T) {
	c := New("a", "b")
	if err := c.SetRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// State b is absorbing: no unique positive steady state via the linear
	// solve on an irreducible assumption — here the solve succeeds with all
	// mass on b, which is in fact the correct limiting distribution.
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[1]-1) > 1e-12 {
		t.Fatalf("absorbing steady state = %v, want all mass on b", pi)
	}
}
