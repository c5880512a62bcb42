package shard

import (
	"testing"
	"time"

	"synchq/internal/core"
	"synchq/internal/segq"
)

// This file pins the abort-vs-fulfil race of the fabric's commit. A
// waiter's reservation is linked on its home shard; the fabric's announce
// and Dekker reload then flag a counterpart on the other shard, so the
// engine aborts the reservation (the core's own cancel CAS) to retry
// through a critical sweep. Either a fulfiller beat that CAS — the
// operation must then complete OK exactly once, with the value conserved —
// or the abort won, and the node must leave the shard while the retry
// pairs. A scripted shard stops the commit inside the post-link window,
// after the reservation links and before the fabric announces it, to
// stage each outcome on each core.

// scriptedDual wraps shard slot so that each commit reservation runs
// linked(call, slot, isData) once it has linked.
type scriptedDual struct {
	Dual[int64]
	slot   int
	calls  int
	linked func(call, slot int, isData bool)
}

func (d *scriptedDual) ReservePutStatus(v int64) (core.Ticket[int64], bool, core.Status) {
	tk, ok, st := d.Dual.ReservePutStatus(v)
	if tk != nil {
		d.calls++
		d.linked(d.calls, d.slot, true)
	}
	return tk, ok, st
}

func (d *scriptedDual) ReserveTakeStatus() (int64, core.Ticket[int64], bool, core.Status) {
	v, tk, ok, st := d.Dual.ReserveTakeStatus()
	if tk != nil {
		d.calls++
		d.linked(d.calls, d.slot, false)
	}
	return v, tk, ok, st
}

// lenDual is the census every core offers beside the Dual surface.
type lenDual interface {
	Dual[int64]
	Len() int
}

var commitCores = []struct {
	name string
	mk   func() lenDual
}{
	{"queue", func() lenDual { return core.NewDualQueue[int64](core.WaitConfig{}) }},
	{"stack", func() lenDual { return core.NewDualStack[int64](core.WaitConfig{}) }},
	{"segq", func() lenDual { return segq.New[int64](core.WaitConfig{}) }},
}

// newScriptedFabric builds a two-shard fabric of the given core whose
// shards share one script.
func newScriptedFabric(mk func() lenDual, script func(f *Fabric[int64], call, slot int, isData bool)) (*Fabric[int64], []lenDual) {
	var f *Fabric[int64]
	var shards []lenDual
	f = New(2, func(i int) Dual[int64] {
		s := mk()
		shards = append(shards, s)
		return &scriptedDual{Dual: s, slot: i, linked: func(call, slot int, isData bool) { script(f, call, slot, isData) }}
	})
	return f, shards
}

// flagOther sets the opposite-side presence bit of the shard that is not
// slot, so the fabric's Dekker reload sees a counterpart and aborts.
func flagOther(f *Fabric[int64], slot int, isData bool) {
	bit := uint64(1) << uint(1-slot)
	if isData {
		setBit(&f.cons, bit)
	} else {
		setBit(&f.prod, bit)
	}
}

func TestCommitFulfillerBeatsAbort(t *testing.T) {
	for _, c := range commitCores {
		t.Run(c.name+"/put", func(t *testing.T) {
			got, ok := int64(0), false
			f, _ := newScriptedFabric(c.mk, func(f *Fabric[int64], call, slot int, isData bool) {
				if call == 1 {
					got, ok = f.Shard(slot).Poll() // fulfil the linked producer
					flagOther(f, slot, isData)
				}
			})
			st := f.PutDeadline(7, time.Now().Add(5*time.Second), nil)
			if st != core.OK || !ok || got != 7 {
				t.Fatalf("PutDeadline = %v with fulfiller Poll = (%d,%v), want OK and (7,true)", st, got, ok)
			}
			if v, ok := f.Poll(); ok {
				t.Fatalf("value delivered twice: a later Poll got %d", v)
			}
		})
		t.Run(c.name+"/take", func(t *testing.T) {
			offered := false
			f, _ := newScriptedFabric(c.mk, func(f *Fabric[int64], call, slot int, isData bool) {
				if call == 1 {
					offered = f.Shard(slot).Offer(9) // fulfil the linked consumer
					flagOther(f, slot, isData)
				}
			})
			v, st := f.TakeDeadline(time.Now().Add(5*time.Second), nil)
			if st != core.OK || !offered || v != 9 {
				t.Fatalf("TakeDeadline = (%d,%v) with fulfiller Offer = %v, want (9,OK) and true", v, st, offered)
			}
			if f.Offer(10) {
				t.Fatal("a second value was taken: a later Offer paired")
			}
		})
	}
}

func TestCommitAbortWinsAndRetryPairs(t *testing.T) {
	for _, c := range commitCores {
		for _, isPut := range []bool{true, false} {
			side := "take"
			if isPut {
				side = "put"
			}
			t.Run(c.name+"/"+side, func(t *testing.T) {
				var shards []lenDual
				live := -1 // live waiters on home when the retry links
				retry := make(chan int, 1)
				f, shards := newScriptedFabric(c.mk, func(f *Fabric[int64], call, slot int, isData bool) {
					switch call {
					case 1:
						flagOther(f, slot, isData) // abort; no fulfiller
					case 2:
						live = shards[slot].Len()
						retry <- slot
					}
				})
				type result struct {
					v  int64
					st core.Status
				}
				done := make(chan result, 1)
				go func() {
					deadline := time.Now().Add(5 * time.Second)
					if isPut {
						done <- result{st: f.PutDeadline(7, deadline, nil)}
						return
					}
					v, st := f.TakeDeadline(deadline, nil)
					done <- result{v, st}
				}()
				var slot int
				select {
				case slot = <-retry:
				case <-time.After(5 * time.Second):
					t.Fatal("the aborted operation never linked again")
				}
				// Pair with the retried waiter once the fabric has announced
				// it, through a zero-patience probe that commits nothing.
				bit := uint64(1) << uint(slot)
				summary := &f.cons
				if isPut {
					summary = &f.prod
				}
				for stop := time.Now().Add(5 * time.Second); summary.Load()&bit == 0; {
					if time.Now().After(stop) {
						t.Fatal("the retried waiter was never announced")
					}
					time.Sleep(time.Millisecond)
				}
				if isPut {
					if v, ok := f.Poll(); !ok || v != 7 {
						t.Fatalf("Poll = (%d,%v), want (7,true)", v, ok)
					}
				} else if !f.Offer(7) {
					t.Fatal("Offer missed the retried consumer")
				}
				r := <-done
				if r.st != core.OK || (!isPut && r.v != 7) {
					t.Fatalf("retried %s = (%d,%v), want OK with 7", side, r.v, r.st)
				}
				if live != 1 {
					t.Fatalf("home shard held %d live waiters when the retry linked, want 1 (the aborted one must be dead)", live)
				}
				for i, s := range shards {
					if !s.IsEmpty() || s.Len() != 0 {
						t.Fatalf("shard %d not empty after the retry paired: the aborted node stayed linked", i)
					}
				}
			})
		}
	}
}
