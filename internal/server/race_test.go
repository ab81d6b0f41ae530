//go:build race

package server

// raceDetector reports a -race build, whose instrumentation allocates on
// its own and makes allocation counts meaningless.
const raceDetector = true
