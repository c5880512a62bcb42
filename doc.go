// Package synchq provides scalable synchronous queues for Go: nonblocking,
// contention-free rendezvous channels in which producers and consumers wait
// for one another, "shake hands," and leave in pairs.
//
// The package is a faithful reproduction of the algorithms of Scherer, Lea
// & Scott, "Scalable Synchronous Queues" (PPoPP 2006) — the algorithms
// adopted as java.util.concurrent.SynchronousQueue in Java 6 — implemented
// from scratch in Go together with every baseline the paper evaluates.
//
// # Queues
//
// Two algorithm families are offered, selected with the Fair option of New:
//
//   - New(Fair(true)) returns the fair (FIFO) synchronous queue, a
//     nonblocking dual queue: the longest-waiting producer pairs with the
//     next arriving consumer and vice versa.
//   - New() returns the unfair (LIFO) synchronous queue, a nonblocking
//     dual stack: the most recently arrived waiter pairs first, which
//     improves locality (hot threads stay hot) at the cost of ordering
//     guarantees.
//
// Further options compose on the same call: Sharded stripes the queue
// across independent shards with cross-shard steals, AutoShard (or
// Sharded(0)) lets the fabric pick its own effective width from observed
// contention, Segmented bounds memory with a segment-backed core, and
// Instrument attaches counters.
//
// Both support demand operations (Put/Take block until a counterpart
// arrives), polar operations (Offer/Poll succeed only if a counterpart is
// already waiting), timed operations with a patience interval, and
// context-aware operations for cancellation.
//
// Baseline constructors (NewNaive, NewHanson, NewJava5Fair, NewJava5Unfair,
// NewChannel) expose the comparison algorithms behind the same interface;
// they exist for benchmarking and study, not production use.
//
// # Extensions
//
// TransferQueue extends the fair queue with asynchronous puts (the paper's
// §5 TransferQueue). Exchanger is the elimination-based swap channel the
// paper's elimination discussion builds on; NewEliminatingQueue fronts a
// synchronous queue with an elimination arena.
//
// The pool subpackage provides a cached thread pool — the Go analogue of
// java.util.concurrent.ThreadPoolExecutor over a SynchronousQueue — used by
// the paper's "real-world" benchmark.
//
// # When to use this instead of a channel
//
// An unbuffered Go channel is itself a synchronous queue, and for most
// programs it is the right tool. This package exists for workloads that
// need the paper's richer interface — leave-if-no-partner Offer/Poll with
// zero or bounded patience, a choice between strict FIFO fairness and
// locality-preserving LIFO pairing, and waiting-counterpart introspection —
// and for studying the algorithms themselves.
package synchq
