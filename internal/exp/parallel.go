package exp

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"bneck/internal/topology"
)

// RunParallel invokes job(0), …, job(n-1) on up to `workers` goroutines and
// returns the error of the lowest-index failing job, if any. Every job runs
// exactly once regardless of other jobs' failures, so results indexed by job
// number are complete and identical to a serial sweep — parallelism must
// never change experiment output, only wall time.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 runs the jobs inline in
// index order with no goroutines at all.
func RunParallel(n, workers int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := job(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs every cell of an experiment on up to workers goroutines (0 or
// 1: serially; negative: GOMAXPROCS) and returns the cells' rows in cell
// order. A cell returns its rows and its progress line; the lines reach
// progress (if non-nil) in cell order, exactly as a serial run prints them.
// On failure sweep returns the rows of the cells before the first failing
// one and that cell's error prefixed with name(cell); the lines stop at the
// same cell.
func sweep[C, R any](cells []C, workers int, progress io.Writer, name func(C) string, run func(C) ([]R, string, error)) ([]R, error) {
	if workers == 0 {
		workers = 1
	}
	type result struct {
		rows []R
		line string
		err  error
		done bool
	}
	res := make([]result, len(cells))
	var mu sync.Mutex
	printed := 0
	_ = RunParallel(len(cells), workers, func(i int) error {
		rows, line, err := run(cells[i])
		// Print under the lock: that is what keeps the lines in cell order.
		mu.Lock()
		defer mu.Unlock()
		res[i] = result{rows, line, err, true}
		for ; printed < len(res) && res[printed].done && res[printed].err == nil; printed++ {
			if progress != nil {
				fmt.Fprint(progress, res[printed].line)
			}
		}
		return err
	})
	var rows []R
	for i, r := range res {
		if r.err != nil {
			return rows, fmt.Errorf("%s: %w", name(cells[i]), r.err)
		}
		rows = append(rows, r.rows...)
	}
	return rows, nil
}

// gridCell is one (topology, scenario, n) point of a sweep: n is the session
// count in Experiment 1 and the seed in Experiments 4 and 5.
type gridCell[N any] struct {
	size topology.Params
	scen topology.Scenario
	n    N
}

// grid lists every (size, scenario, n) combination, sizes outermost.
func grid[N any](sizes []topology.Params, scens []topology.Scenario, ns []N) []gridCell[N] {
	var cells []gridCell[N]
	for _, size := range sizes {
		for _, scen := range scens {
			for _, n := range ns {
				cells = append(cells, gridCell[N]{size, scen, n})
			}
		}
	}
	return cells
}
