package main

import "synchq"

// counterSnap is one reading of a Metrics set: its event counters and the
// raw buckets of its park-wait histogram.
type counterSnap struct {
	c    map[string]int64
	park []int64
}

func snapMetrics(m *synchq.Metrics) counterSnap {
	st := m.Stats()
	return counterSnap{c: st.Counters, park: append([]int64(nil), st.Latency["park"].Buckets...)}
}

// sub returns the window's delta, end minus start.
func (end counterSnap) sub(start counterSnap) counterSnap {
	d := counterSnap{c: map[string]int64{}, park: append([]int64(nil), end.park...)}
	for k, v := range end.c {
		d.c[k] = v - start.c[k]
	}
	for i := range d.park {
		if i < len(start.park) {
			d.park[i] -= start.park[i]
		}
	}
	return d
}

// coreLayer turns a window's counter delta into the per-layer metrics of
// the spin, park and core layers, per completed operation.
func coreLayer(d counterSnap, ops int64) map[string]float64 {
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	casFail := d.c["cas-fail-enqueue"] + d.c["cas-fail-fulfill"] + d.c["cas-fail-clean"]
	out := map[string]float64{
		"spin.spins_per_op":    per(d.c["spins"]),
		"park.parks_per_op":    per(d.c["parks"]),
		"park.unparks_per_op":  per(d.c["unparks"]),
		"park.wait_p50_ns":     log2Quantile(d.park, 0.5),
		"core.cas_fail_per_op": per(casFail),
		"core.timeouts_per_op": per(d.c["timeouts"]),
		"core.clean_per_op":    per(d.c["clean-sweeps"]),
	}
	if f := d.c["fulfillments"]; f+casFail > 0 {
		out["core.fulfil_ratio"] = float64(f) / float64(f+casFail)
	}
	return out
}
