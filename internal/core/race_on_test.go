//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation bounds that rely on pooled scratch do not hold under it.
const raceEnabled = true
