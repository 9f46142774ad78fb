// Package par provides the one concurrency primitive this repository needs:
// a deterministic bounded parallel for-loop.
//
// Determinism discipline: callers must draw any per-iteration random seeds
// from their sequential source *before* the loop, index results by i, and
// reduce in index order afterwards. Under that discipline results are
// bit-identical to the sequential loop regardless of scheduling.
//
// Reduction-order contract: when iterations accumulate floating point, the
// work must be partitioned into fixed-size chunks whose boundaries do not
// depend on the worker count, each iteration must write only to its own
// chunk's accumulator in a fixed intra-chunk order, and the caller must
// fold the chunk accumulators together sequentially in increasing index
// order after ForN returns. Float addition is not associative, so any
// partition or fold order that varies with workers (or with scheduling)
// silently breaks the repo-wide "same seed, same floats" guarantee.
// internal/rl's update keeps such a partition (updateShardSize) and folds
// it in index order inside each lane.
//
// The other sanctioned shape is independent lanes: each iteration runs a
// whole sequential chain of work that writes no state another iteration
// reads or writes (internal/rl's runLanes: an update's policy and value
// chains, for both learners). Each lane keeps its own accumulation order,
// so the result is the same as running the lanes one after the other.
// Where lanes must agree on a decision, they meet at a barrier and one lane
// decides from state the other has finished writing.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// IterError is the panic value ForN re-panics with when an iteration
// panics: it carries the faulting iteration index, the original panic
// value, and the stack captured at the panic site, so a crash inside a
// parallel rollout names the environment that died instead of losing it
// in the scheduler. Containment layers (the training guard) unwrap it
// via the Index/Value fields; uncontained panics print it via Error.
type IterError struct {
	Index int    // iteration i passed to f when it panicked
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine, captured at recovery
}

func (e *IterError) Error() string {
	return fmt.Sprintf("par: iteration %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Unwrap returns the original panic value when it was an error, so
// errors.Is/As see through the wrapper.
func (e *IterError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// wrapIter wraps a recovered panic value, preserving an existing
// IterError (nested ForN calls keep the innermost index and stack).
func wrapIter(i int, r any) *IterError {
	if ie, ok := r.(*IterError); ok {
		return ie
	}
	return &IterError{Index: i, Value: r, Stack: debug.Stack()}
}

// For runs f(0..n-1) on up to GOMAXPROCS goroutines and returns when all
// calls complete. A panicking iteration propagates after all workers stop
// (standard WaitGroup semantics would otherwise deadlock), re-panicking
// with an *IterError that records the iteration index and stack.
func For(n int, f func(i int)) {
	ForN(n, runtime.GOMAXPROCS(0), f)
}

// ForN is For with an explicit worker cap. workers <= 1 degrades to a plain
// sequential loop (useful under -race or for debugging); the IterError
// panic contract is the same on both paths.
func ForN(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		forSeq(n, f)
		return
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked *IterError
	)
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							// Capture the stack here, inside the deferred
							// recover: the panicking frames are still live
							// on this goroutine, so the trace names f's
							// actual fault site.
							ie := wrapIter(i, r)
							mu.Lock()
							if panicked == nil {
								panicked = ie
							}
							mu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// forSeq is the workers <= 1 path: a plain loop on the caller's
// goroutine, with the same IterError wrapping as the parallel path.
func forSeq(n int, f func(i int)) {
	cur := 0
	defer func() {
		if r := recover(); r != nil {
			panic(wrapIter(cur, r))
		}
	}()
	for ; cur < n; cur++ {
		f(cur)
	}
}
