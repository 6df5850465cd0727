//go:build race

package sweep

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random quarter of its puts.
const raceEnabled = true
