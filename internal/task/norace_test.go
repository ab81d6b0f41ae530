//go:build !race

package task

const raceDetector = false
