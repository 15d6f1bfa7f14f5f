//go:build !race

package perfilter

const raceEnabled = false
