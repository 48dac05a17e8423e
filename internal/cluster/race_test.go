//go:build race

package cluster

// raceEnabled reports that the race runtime is active; its goroutine
// bookkeeping allocates, so the allocation gates only hold in plain
// builds (CI runs them in a dedicated no-race step).
const raceEnabled = true
