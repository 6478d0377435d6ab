//go:build race

package macc_test

const raceEnabled = true
