//go:build race

package channels_test

const raceEnabled = true
