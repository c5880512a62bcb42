package bench

import (
	"fmt"

	"synchq/internal/stats"
)

// The paper's sweep levels. PairLevels is the x-axis of Figures 3 and 6
// (pairs / threads); SingleLevels is the x-axis of Figures 4 and 5
// (consumers / producers opposite a singleton).
var (
	PairLevels   = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	SingleLevels = []int{1, 2, 3, 5, 8, 12, 18, 27, 41, 62}
)

// SweepOpts parameterizes a figure regeneration.
type SweepOpts struct {
	// Transfers per measurement cell; zero selects a default that keeps
	// the slowest baselines tractable.
	Transfers int64
	// Levels overrides the figure's default x-axis.
	Levels []int
	// Repeats per cell; the minimum is reported (least-noise estimator
	// for a fixed amount of work), except by the batch sweep, which
	// reports the median of repeats interleaved across batch sizes.
	// Zero selects 3.
	Repeats int
	// Extras adds the Go channel and naive queue series.
	Extras bool
	// Cores, when non-empty, restricts the scaling sweep to the named
	// series (by exact series name, e.g. "queue", "seg",
	// "queue+shard+elim") so CI can gate a reduced sweep quickly. Figures
	// other than scaling ignore it.
	Cores []string
	// Progress, if non-nil, is called before each cell is measured.
	Progress func(figure int, algo string, level int)
}

func (o SweepOpts) withDefaults(defaultLevels []int, defaultTransfers int64) SweepOpts {
	if o.Transfers == 0 {
		o.Transfers = defaultTransfers
	}
	if len(o.Levels) == 0 {
		o.Levels = defaultLevels
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	return o
}

// measure runs one cell: repeats runs, minimum ns/transfer.
func measure(a Algorithm, producers, consumers int, transfers int64, repeats int) float64 {
	best := 0.0
	for r := 0; r < repeats; r++ {
		res := RunHandoff(a.New(), producers, consumers, transfers, nil)
		ns := res.NsPerTransfer()
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// columnNames lists the series labels for a sweep.
func columnNames(algos []Algorithm) []string {
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

// Figure3 regenerates "Synchronous handoff: N producers, N consumers":
// ns/transfer as the number of producer/consumer pairs sweeps the paper's
// levels.
func Figure3(o SweepOpts) *stats.Table {
	o = o.withDefaults(PairLevels, 20000)
	algos := Algorithms(o.Extras)
	t := stats.NewTable("Figure 3: synchronous handoff, N producers : N consumers", "pairs", "ns/transfer", columnNames(algos))
	for _, level := range o.Levels {
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(3, a.Name, level)
			}
			ns := measure(a, level, level, o.Transfers, o.Repeats)
			t.Set(fmt.Sprint(level), a.Name, ns)
		}
	}
	return t
}

// Figure4 regenerates "Synchronous handoff: 1 producer, N consumers".
func Figure4(o SweepOpts) *stats.Table {
	o = o.withDefaults(SingleLevels, 20000)
	algos := Algorithms(o.Extras)
	t := stats.NewTable("Figure 4: synchronous handoff, 1 producer : N consumers", "consumers", "ns/transfer", columnNames(algos))
	for _, level := range o.Levels {
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(4, a.Name, level)
			}
			ns := measure(a, 1, level, o.Transfers, o.Repeats)
			t.Set(fmt.Sprint(level), a.Name, ns)
		}
	}
	return t
}

// Figure5 regenerates "Synchronous handoff: N producers, 1 consumer".
func Figure5(o SweepOpts) *stats.Table {
	o = o.withDefaults(SingleLevels, 20000)
	algos := Algorithms(o.Extras)
	t := stats.NewTable("Figure 5: synchronous handoff, N producers : 1 consumer", "producers", "ns/transfer", columnNames(algos))
	for _, level := range o.Levels {
		for _, a := range algos {
			if o.Progress != nil {
				o.Progress(5, a.Name, level)
			}
			ns := measure(a, level, 1, o.Transfers, o.Repeats)
			t.Set(fmt.Sprint(level), a.Name, ns)
		}
	}
	return t
}
