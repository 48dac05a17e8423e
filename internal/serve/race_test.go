//go:build race

package serve

// raceEnabled reports that the race runtime is active; its goroutine
// bookkeeping allocates and its sync.Pool drops items at random, so the
// allocation gate only holds in plain builds (CI runs it in a dedicated
// no-race step).
const raceEnabled = true
