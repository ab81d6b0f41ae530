//go:build !race

package arbiter

const raceDetector = false
