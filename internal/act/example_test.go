package act_test

import (
	"fmt"

	"repro/internal/act"
)

// demoTarget is a minimal managed system for the example.
type demoTarget struct{}

func (demoTarget) CleanupState() error       { return nil }
func (demoTarget) Failover() error           { return nil }
func (demoTarget) ShedLoad(float64) error    { return nil }
func (demoTarget) PrepareRepair() error      { return nil }
func (demoTarget) Restart() (float64, error) { return 30, nil }

// Selecting the most effective countermeasure for a failure warning with
// the Sect. 2 objective function.
func ExampleSelector_Select() {
	var target demoTarget
	cleanup, err := act.NewStateCleanup(target, act.Params{
		Cost: 0.2, SuccessProb: 0.7, Complexity: 0.1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	restart, err := act.NewPreventiveRestart(target, act.Params{
		Cost: 3, SuccessProb: 0.95, Complexity: 0.4,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	selector, err := act.NewSelector(act.DefaultWeights())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// A moderately confident warning: the cheap clean-up wins.
	action, _, worth, err := selector.Select([]*act.Action{cleanup, restart}, 0.6)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("selected %s (worth acting: %t, goal: %s)\n",
		action.Name(), worth, action.Category().Goal())
	// Output:
	// selected state-cleanup (worth acting: true, goal: downtime avoidance)
}
