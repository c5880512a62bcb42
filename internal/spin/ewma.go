package spin

import "sync/atomic"

// EWMA is the shared fixed-point exponentially-weighted moving average the
// adaptive controllers are built on: the spin-budget calibrator (this
// package), the elimination arena's width/patience adaptor
// (internal/exchanger), the hand-off fabric's shard-width controller
// (internal/shard) and the parker's timer-lateness estimate
// (internal/park) all smooth one cheap per-operation signal through the
// same filter — α = 1/8, eight fractional bits — so their time constants
// and numeric behavior stay comparable across subsystems.
//
// The read-modify-write in Observe is deliberately racy: concurrent
// observers may lose updates, but every controller using this filter is a
// heuristic whose surviving updates still move the average toward the
// recent signal mean, and a CAS loop here would put a contended word on
// the hot path of structures whose whole point is avoiding one.
type EWMA struct {
	bits atomic.Uint64
}

// ewmaShift is the fixed-point fraction width of the accumulator;
// alphaShift makes the smoothing factor α = 1/8.
const (
	ewmaShift  = 8
	alphaShift = 3
)

// Init seeds the average at v (integer units). Call before the EWMA is
// shared between goroutines.
func (e *EWMA) Init(v uint64) { e.bits.Store(v << ewmaShift) }

// Observe folds one sample (integer units) into the average and returns
// the updated value truncated to integer units. Lost updates under
// concurrency only soften the signal.
func (e *EWMA) Observe(sample uint64) uint64 {
	v := e.bits.Load()
	v += (sample << ewmaShift >> alphaShift) - (v >> alphaShift)
	e.bits.Store(v)
	return v >> ewmaShift
}

// Value returns the current average truncated to integer units.
func (e *EWMA) Value() uint64 { return e.bits.Load() >> ewmaShift }

// Half reports whether the current average is at least one half — the
// natural threshold when the samples are a 0/1 event indicator (e.g. "was
// this completion a steal") and the controller wants "most of them are".
func (e *EWMA) Half() bool { return e.bits.Load() >= 1<<(ewmaShift-1) }
