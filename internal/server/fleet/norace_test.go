//go:build !race

package fleet

const raceDetector = false
