//go:build !race

package profiler

const raceDetector = false
