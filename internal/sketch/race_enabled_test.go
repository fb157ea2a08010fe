//go:build race

package sketch

func init() { raceEnabled = true }
