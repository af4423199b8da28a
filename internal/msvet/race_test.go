//go:build race

package msvet

const raceEnabled = true
