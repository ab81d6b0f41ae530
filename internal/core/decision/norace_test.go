//go:build !race

package decision

const raceDetector = false
