//go:build race

package runtime

// raceDetector reports whether the test binary was built with -race, under
// which timing comparisons measure the detector, not the code.
const raceDetector = true
