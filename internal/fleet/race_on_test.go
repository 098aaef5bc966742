//go:build race

package fleet

// raceDetector reports whether the test binary was built with -race, whose
// sync.Pool drops items at random: allocation counts then measure the
// detector, not the code.
const raceDetector = true
