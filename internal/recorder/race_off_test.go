//go:build !race

package recorder

const raceEnabled = false
