//go:build !race

package ap

const raceEnabled = false
