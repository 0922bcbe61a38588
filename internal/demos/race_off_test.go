//go:build !race

package demos

const raceEnabled = false
