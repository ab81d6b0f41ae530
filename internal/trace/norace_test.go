//go:build !race

package trace

const raceDetector = false
