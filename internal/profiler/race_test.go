//go:build race

package profiler

// raceDetector reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts meaningless.
const raceDetector = true
