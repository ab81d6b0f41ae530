//go:build !race

package sensor

const raceDetector = false
