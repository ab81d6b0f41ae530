//go:build !race

package fsim

const raceDetector = false
