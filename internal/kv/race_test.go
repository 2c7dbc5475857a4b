//go:build race

package kv

// raceEnabled reports a -race build, whose sync.Pool drops objects at
// random: allocation counts of pooled paths mean nothing there.
const raceEnabled = true
