//go:build !race

package resmgr

const raceDetector = false
