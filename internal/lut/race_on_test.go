//go:build race

package lut

const raceEnabled = true
