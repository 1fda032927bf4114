//go:build race

package core

// raceEnabled reports whether the race detector instruments this build —
// byte-count gates skip under it (race mode drops sync.Pool entries, so
// the pooled pair table is reallocated at random).
const raceEnabled = true
