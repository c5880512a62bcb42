// Reservation: the paper's first-class request/follow-up interface
// (§2.2, Listing 2) — the feature that distinguishes a dual data structure
// from a "totalized" partial operation.
//
// A worker that needs an item does not have to choose between blocking
// (Take) and contention-generating retry loops (Poll in a loop). It
// registers a reservation — which immediately claims its place in the fair
// queue's FIFO order — and keeps doing useful work, checking the ticket
// with contention-free follow-ups: each unsuccessful TryFollowup reads
// only the reservation's own node, so the polling worker never slows
// anyone else down. When the worker runs out of patience it aborts the
// reservation; if an item arrived in the meantime, the abort fails and the
// follow-up collects it.
//
// Run with:
//
//	go run ./examples/reservation
package main

import (
	"fmt"
	"time"

	"synchq"
)

func main() {
	q := synchq.New[string](synchq.Fair(true))

	// A producer will show up a little later.
	go func() {
		time.Sleep(30 * time.Millisecond)
		q.Put("the result")
	}()

	// Register interest now: our place in line is claimed even though we
	// are not blocked.
	_, ticket, ok := q.TakeReserve()
	if ok {
		fmt.Println("immediate hand-off (producer was already waiting)")
		return
	}

	// Overlap the wait with useful work, polling the ticket between
	// batches. Unsuccessful follow-ups are contention-free.
	batches := 0
	for {
		doUsefulWork(&batches)
		if v, ok := ticket.TryFollowup(); ok {
			fmt.Printf("received %q after %d work batches\n", v, batches)
			break
		}
	}

	// Second act: nobody produces, so the reservation is abandoned.
	_, ticket2, _ := q.TakeReserve()
	for i := 0; i < 3; i++ {
		doUsefulWork(&batches)
		if _, ok := ticket2.TryFollowup(); ok {
			fmt.Println("unexpected delivery")
			return
		}
	}
	if ticket2.Abort() {
		fmt.Println("no producer appeared; reservation aborted cleanly")
	} else {
		// Lost the race to a late producer: the paper's Listing 2
		// handles exactly this by re-running the follow-up.
		v, _ := ticket2.TryFollowup()
		fmt.Printf("abort lost to a late producer; collected %q\n", v)
	}
}

func doUsefulWork(batches *int) {
	time.Sleep(10 * time.Millisecond) // simulated batch of other work
	*batches++
}
