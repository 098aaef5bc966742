package pfm

import "repro/internal/diagnose"

// --- pre-failure diagnosis (Sect. 2 / Sect. 7) -------------------------------

// Diagnoser ranks components by pre-failure evidence from a warning's error
// window — diagnosis before the failure has occurred.
type Diagnoser = diagnose.Diagnoser

// TrainDiagnoser learns component/event-type pre-failure signatures from
// labeled error windows of l, as CollectDiagnosisWindows returns them.
func TrainDiagnoser(l *ErrorLog, failure, nonFailure [][2]int, smoothing float64) (*Diagnoser, error) {
	return diagnose.TrainOnRanges(l, failure, nonFailure, smoothing)
}

// CollectDiagnosisWindows assembles pre-failure and reference error windows
// for diagnoser training, with the Fig. 6 window geometry, as [lo, hi)
// index ranges into l.
func CollectDiagnosisWindows(l *ErrorLog, failureTimes []float64, cfg ExtractConfig) (failure, nonFailure [][2]int, err error) {
	return diagnose.CollectWindowRanges(l, failureTimes, cfg)
}
