//go:build race

package decision

// raceDetector reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts meaningless.
const raceDetector = true
