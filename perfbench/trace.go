package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span names. Spans are recorded by the benchmark around its calls into
// the program, never inside it.
const (
	spPut       uint8 = iota // pipeline: one PutContext call
	spTake                   // pipeline: one TakeContext call
	spRequest                // rpc: due time to task end
	spSubmit                 // rpc: one SubmitContext call
	spQueueWait              // rpc: submit start to task start
	spExec                   // rpc: the task body
	spPoll                   // timeouts: one PollTimeout call
	spOffer                  // timeouts: one OfferTimeout call
	numSpanNames
)

var spanNames = [numSpanNames]string{"synchq.put", "synchq.take", "rpc.request", "pool.submit", "pool.queue_wait", "pool.exec", "synchq.poll_timeout", "synchq.offer_timeout"}

// span is one timed interval. parent is the index of the causing span in
// the same buffer, or -1; spans of one item or request share req.
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       uint8
}

// spanBuf is a goroutine's in-memory span log, preallocated at set-up so
// recording allocates nothing; spans past its capacity are counted, not
// kept.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(n int) *spanBuf { return &spanBuf{spans: make([]span, 0, n)} }

// add appends a span and returns its index (or -1 when full).
func (b *spanBuf) add(s span) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, s)
	return int32(len(b.spans) - 1)
}

// sampled reports whether the item or request with id is traced: one in
// every 1<<shift ids, chosen by hash so both sides of a hand-off agree.
func sampled(id uint64, shift uint) bool { return mix(id)&(1<<shift-1) == 0 }

// spanSet is the traced run's spans, merged from every buffer.
type spanSet struct {
	bufs    []*spanBuf
	dropped int64
}

// durations returns the duration (ns) of every span named name whose
// start lies in [from, to); with self set, the part of each span its
// children do not cover.
func (ss *spanSet) durations(name uint8, from, to int64, self bool) []float64 {
	var out []float64
	for _, b := range ss.bufs {
		var kids map[int32][]span
		if self {
			kids = map[int32][]span{}
			for _, s := range b.spans {
				if s.parent >= 0 {
					kids[s.parent] = append(kids[s.parent], s)
				}
			}
		}
		for i, s := range b.spans {
			if s.name != name || s.start < from || s.start >= to {
				continue
			}
			d := s.end - s.start
			if self {
				d -= covered(s, kids[int32(i)])
			}
			out = append(out, float64(d))
		}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	cur := parent.start
	for _, k := range kids {
		s, e := max(k.start, cur), min(k.end, parent.end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write dumps every span as CSV under outDir and returns the path.
func (ss *spanSet) write(cfg config) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buf,index,name,start_ns,end_ns,parent,req")
	for bi, b := range ss.bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", bi, i, spanNames[s.name], s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// report writes the spans out and returns a note saying where.
func (ss *spanSet) report(cfg config) string {
	n := 0
	for _, b := range ss.bufs {
		n += len(b.spans)
		ss.dropped += b.dropped
	}
	path, err := ss.write(cfg)
	if err != nil {
		return fmt.Sprintf("spans: %d kept, %d over capacity; write failed: %v", n, ss.dropped, err)
	}
	return fmt.Sprintf("spans: %d kept, %d over capacity, written to %s", n, ss.dropped, path)
}
