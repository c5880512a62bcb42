// Quickstart: the smallest useful synchq program.
//
// A producer and a consumer rendezvous through an unfair synchronous
// queue: Put blocks until Take arrives and vice versa, so every transfer
// is a handshake. The example then shows the polar operations — Offer and
// Poll — which refuse to wait, and a timed offer with bounded patience.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"synchq"
)

func main() {
	q := synchq.New[string](synchq.Fair(false))

	// Demand operations: both sides wait for the handshake.
	go func() {
		// The consumer arrives a moment later; Put waits for it.
		time.Sleep(50 * time.Millisecond)
		fmt.Println("consumer: took", q.Take())
	}()
	fmt.Println("producer: handing off (blocks until taken)...")
	q.Put("hello")
	fmt.Println("producer: handoff complete")

	// Polar operations: succeed only if a counterpart is already there.
	if !q.Offer("nobody is waiting") {
		fmt.Println("offer: refused — no consumer waiting")
	}
	if _, ok := q.Poll(); !ok {
		fmt.Println("poll: refused — no producer waiting")
	}

	// Timed operations: wait, but only so long.
	go func() {
		time.Sleep(20 * time.Millisecond)
		if v, ok := q.PollTimeout(time.Second); ok {
			fmt.Println("consumer: polled", v)
		}
	}()
	if q.OfferTimeout("patient hello", time.Second) {
		fmt.Println("offer: accepted within patience")
	}

	// The fair variant pairs waiters strictly first-come-first-served.
	fair := synchq.New[int](synchq.Fair(true))
	done := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			fmt.Println("fair consumer: took", fair.Take())
		}
		close(done)
	}()
	for i := 1; i <= 3; i++ {
		fair.Put(i) // arrives in order 1, 2, 3 — delivered in that order
	}
	<-done
}
