//go:build !race

package macc_test

const raceEnabled = false
