//go:build race

package exp

// raceDetector reports a -race build, whose sync.Pool drops items at
// random.
const raceDetector = true
