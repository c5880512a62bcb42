//go:build race

package synchq

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops a quarter of Puts (see sync/pool.go), so
// allocation budgets on pooled paths widen.
const raceEnabled = true
