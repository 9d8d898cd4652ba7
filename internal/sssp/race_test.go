//go:build race

package sssp

// raceEnabled reports a -race build, whose sync.Pool drops a share of its
// Puts at random, so allocation bounds that rest on pool reuse cannot hold.
const raceEnabled = true
