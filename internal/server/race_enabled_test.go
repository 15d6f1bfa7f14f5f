//go:build race

package server

// raceEnabled reports whether the race detector is active: sync.Pool
// intentionally drops a fraction of Puts under -race, so allocation
// gates on pooled paths are meaningless there.
const raceEnabled = true
