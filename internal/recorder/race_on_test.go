//go:build race

package recorder

const raceEnabled = true
