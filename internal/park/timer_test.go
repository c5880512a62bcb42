package park

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPooledTimerTickNeverEndsWaitEarly races pooled timed Waits against
// Unpark, so timers keep firing while their waits are being woken. Under
// asynchronous timer channels (which the module's go directive selects) a
// tick can land after Stop's drain and ride the pooled timer into the next
// wait. A tick is only a hint: every wait that reports DeadlineExceeded
// must do so at or after its own deadline, and no 30 ms wait may end
// before 25 ms.
func TestPooledTimerTickNeverEndsWaitEarly(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	run := time.Second
	if testing.Short() {
		run = 500 * time.Millisecond
	}
	const pairs = 4
	stop := time.Now().Add(run)
	var early, longEarly, longWaits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pairs; w++ {
		p := New()
		var quit atomic.Bool
		wg.Add(2)
		go func() { // unparker: wakes the waiter at timer-scale intervals
			defer wg.Done()
			for i := 0; !quit.Load(); i++ {
				spinFor(time.Duration(10+i%60) * time.Microsecond)
				p.Unpark()
			}
		}()
		go func() {
			defer wg.Done()
			defer quit.Store(true)
			for i := 0; time.Now().Before(stop); i++ {
				d := time.Duration(5+i%50) * time.Microsecond
				if i%64 == 63 {
					d = 30 * time.Millisecond
				}
				start := time.Now()
				deadline := start.Add(d)
				r := p.Wait(deadline, nil)
				end := time.Now()
				if d == 30*time.Millisecond {
					longWaits.Add(1)
				}
				if r != DeadlineExceeded {
					continue
				}
				if end.Before(deadline) {
					early.Add(1)
				}
				if d == 30*time.Millisecond && end.Sub(start) < 25*time.Millisecond {
					longEarly.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if longWaits.Load() == 0 {
		t.Fatal("no 30 ms wait ran; probe too short")
	}
	if n := early.Load(); n > 0 {
		t.Errorf("%d timed waits reported DeadlineExceeded before their deadline (%d of them 30 ms waits ending before 25 ms)",
			n, longEarly.Load())
	}
}

// spinFor busy-waits for d; sleeping would round up to the scheduler's
// timer granularity and miss the race window.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}
