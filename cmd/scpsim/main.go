// Command scpsim runs the simulated telecom SCP with the full MEA loop
// attached and compares it against the identical unmitigated system (E3:
// Table 1 outcome accounting and measured availability), plus the Fig. 8
// time-to-repair experiment (E7) and the oscillation-guard ablation (E12).
//
// Usage:
//
//	scpsim [-seed 11] [-days 7] [-workers 0] [-replicates 1] [-fig8] [-oscillation]
//
// -replicates > 1 runs seed-replicated closed-loop experiments sharded
// across -workers (0 = all cores) and prints each replicate's availability.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scpsim", flag.ContinueOnError)
	defaults := experiments.DefaultMEAConfig()
	seed := fs.Int64("seed", defaults.Seed, "simulation seed")
	days := fs.Float64("days", defaults.RunDays, "closed-loop horizon [days]")
	fig8 := fs.Bool("fig8", false, "run the Fig. 8 TTR experiment (E7)")
	osc := fs.Bool("oscillation", false, "run the oscillation-guard ablation (E12)")
	dyn := fs.Bool("dynamicity", false, "run the dynamicity/retraining experiment (E13)")
	workers := fs.Int("workers", 0, "worker bound for replicate sweeps (0 = all cores)")
	replicates := fs.Int("replicates", 1, "seed replicates to run in parallel")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := defaults
	cfg.Seed = *seed
	cfg.RunDays = *days

	if *replicates > 1 {
		results, err := experiments.RunMEAReplicates(cfg, *replicates, *workers)
		if err != nil {
			return err
		}
		for i, r := range results {
			fmt.Fprintf(stdout, "replicate %d (seed %d): availability withPFM=%.5f without=%.5f ratio=%.3f\n",
				i, cfg.Seed+int64(i), r.AvailabilityWithPFM, r.AvailabilityWithout, r.UnavailabilityRatio)
		}
		return nil
	}

	res, err := experiments.RunMEA(cfg)
	if err != nil {
		return err
	}
	experiments.Fprint(stdout, "E3: MEA loop vs unmitigated system", res.Rows())
	fmt.Fprint(stdout, res.Matrix())

	if *fig8 {
		f8, err := experiments.RunFig8(*seed, *days, 900)
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E7: Fig. 8 time-to-repair decomposition", f8.Rows())
	}
	if *osc {
		off, err := experiments.RunOscillationAblation(*seed, 2, false)
		if err != nil {
			return err
		}
		on, err := experiments.RunOscillationAblation(*seed, 2, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== E12: oscillation guard ablation ==")
		fmt.Fprintf(stdout, "guard off: availability %.5f, %d restarts\n", off.Availability, off.Restarts)
		fmt.Fprintf(stdout, "guard on:  availability %.5f, %d restarts, %d suppressed\n",
			on.Availability, on.Restarts, on.SuppressedByGuard)
	}
	if *dyn {
		d, err := experiments.RunDynamicity(*seed)
		if err != nil {
			return err
		}
		experiments.Fprint(stdout, "E13: dynamicity, drift detection, retraining", d.Rows())
	}
	return nil
}
