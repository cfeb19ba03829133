//go:build !race

package experiment

const raceEnabled = false
