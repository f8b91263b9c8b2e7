//go:build race

package ap

// raceEnabled skips allocation-count assertions under the race
// detector: with race instrumentation sync.Pool sheds items at random
// (by design), so pooled scratch paths legitimately allocate there.
const raceEnabled = true
