//go:build race

package fleet

// raceDetector reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts meaningless.
const raceDetector = true
