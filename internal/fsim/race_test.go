//go:build race

package fsim

// raceDetector reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts meaningless.
const raceDetector = true
