//go:build race

package sim

// raceEnabled skips allocation-count assertions under the race
// detector, whose instrumentation allocates on its own account.
const raceEnabled = true
