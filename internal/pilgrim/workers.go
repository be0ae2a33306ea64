package pilgrim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultForecastWorkers is the worker-pool width NewServer (and the
// package-level SelectFastest) uses: one concurrent hypothesis simulation
// per available CPU.
var DefaultForecastWorkers = runtime.GOMAXPROCS(0)

// WorkerPool bounds the number of hypothesis simulations running
// concurrently. select_fastest requests fan their hypotheses out over the
// pool: each hypothesis is an independent simulation (the engines come
// from the sim package's engine pool, and the platform's route cache is
// read-mostly), so n hypotheses on w workers finish in ~⌈n/w⌉ simulation
// times instead of n. The pool is safe for concurrent use by many
// requests at once; its counters feed /pilgrim/cache_stats.
type WorkerPool struct {
	slots chan struct{}

	busy      atomic.Int64
	maxBusy   atomic.Int64
	queued    atomic.Int64
	evaluated atomic.Uint64
	batches   atomic.Uint64

	// Scenario-evaluation telemetry: evaluate calls fanned over the pool,
	// scenario×query cells requested, distinct cell groups actually run
	// (after overlay/cell dedup), and sub-simulations executed.
	evalCalls atomic.Uint64
	evalCells atomic.Uint64
	evalRuns  atomic.Uint64
	evalSims  atomic.Uint64

	// Differential-evaluation telemetry: derived cells answered by base
	// reuse, and derived cells run whose footprint crosses bandwidth changes
	// only or a latency/availability change.
	evalForkReused atomic.Uint64
	evalForkRuns   atomic.Uint64
	evalForkCold   atomic.Uint64
	// The transfers those run cells simulated, and the ones they left out
	// because the base answer's prediction is theirs.
	evalRerun  atomic.Uint64
	evalCopied atomic.Uint64
}

// NewWorkerPool returns a pool running up to workers hypothesis
// simulations concurrently. workers <= 0 selects DefaultForecastWorkers;
// 1 gives strictly sequential evaluation.
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = DefaultForecastWorkers
	}
	if workers < 1 {
		workers = 1
	}
	return &WorkerPool{slots: make(chan struct{}, workers)}
}

// Workers returns the pool width.
func (p *WorkerPool) Workers() int { return cap(p.slots) }

func (p *WorkerPool) release() {
	p.busy.Add(-1)
	<-p.slots
}

// WorkerStats is the pool telemetry surfaced by /pilgrim/cache_stats
// (under "forecast_workers") and, through the metric tags, /metrics.
type WorkerStats struct {
	Workers    int    `json:"workers" metric:"pilgrim_workers" help:"Configured worker-pool width (-forecast-workers)."`
	Busy       int64  `json:"busy" metric:"pilgrim_workers_busy" help:"Batch workers running right now."`
	Queued     int64  `json:"queued" metric:"pilgrim_workers_queued" help:"Workers waiting for a free pool slot."`
	MaxBusy    int64  `json:"max_busy" metric:"pilgrim_workers_max_busy" help:"High-water mark of concurrently running workers."`
	Hypotheses uint64 `json:"hypotheses_evaluated" metric:"pilgrim_hypotheses_total" help:"Hypothesis simulations completed through the pool."`
	Batches    uint64 `json:"select_fastest_calls" metric:"pilgrim_select_fastest_calls_total" help:"select_fastest calls served."`
	// EvaluateSims counts the sub-simulations evaluate groups executed
	// (cache hits and deduplicated cells pay none).
	EvaluateCalls     uint64 `json:"evaluate_calls" metric:"pilgrim_evaluate_calls_total" help:"Evaluate batches fanned over the pool."`
	EvaluateCells     uint64 `json:"evaluate_cells" metric:"pilgrim_evaluate_cells_total" help:"Scenario×query cells requested by evaluate batches."`
	EvaluateGroupRuns uint64 `json:"evaluate_group_runs" metric:"pilgrim_evaluate_group_runs_total" help:"Distinct per-snapshot groups run after dedup."`
	EvaluateSims      uint64 `json:"evaluate_simulations" metric:"pilgrim_evaluate_simulations_total" help:"Sub-simulations executed by evaluate groups."`
	// Differential-evaluation totals: derived cells answered by provable
	// base-answer reuse (no simulation), and derived cells run on their own
	// epoch whose footprint crosses bandwidth changes only (fork) or a
	// latency or availability change (cold).
	EvaluateForkReused uint64 `json:"evaluate_fork_reused" metric:"pilgrim_evaluate_fork_total{tier=\"reused\"}" help:"Derived evaluate cells by differential tier."`
	EvaluateForkRuns   uint64 `json:"evaluate_fork_runs" metric:"pilgrim_evaluate_fork_total{tier=\"forked\"}"`
	EvaluateForkCold   uint64 `json:"evaluate_fork_cold" metric:"pilgrim_evaluate_fork_total{tier=\"cold\"}"`
	// The transfers of the forked and cold cells: simulated on the cell's
	// epoch, or copied from the base answer because no link that can
	// saturate joins them to the cell's delta.
	EvaluateTransfersRerun  uint64 `json:"evaluate_transfers_rerun" metric:"pilgrim_evaluate_cell_transfers_total{how=\"rerun\"}" help:"Transfers of forked and cold evaluate cells, by how each was answered."`
	EvaluateTransfersCopied uint64 `json:"evaluate_transfers_copied" metric:"pilgrim_evaluate_cell_transfers_total{how=\"copied\"}"`
}

// Stats returns a snapshot of the pool counters.
func (p *WorkerPool) Stats() WorkerStats {
	return WorkerStats{
		Workers:            p.Workers(),
		Busy:               p.busy.Load(),
		Queued:             p.queued.Load(),
		MaxBusy:            p.maxBusy.Load(),
		Hypotheses:         p.evaluated.Load(),
		Batches:            p.batches.Load(),
		EvaluateCalls:      p.evalCalls.Load(),
		EvaluateCells:      p.evalCells.Load(),
		EvaluateGroupRuns:  p.evalRuns.Load(),
		EvaluateSims:       p.evalSims.Load(),
		EvaluateForkReused: p.evalForkReused.Load(),
		EvaluateForkRuns:   p.evalForkRuns.Load(),
		EvaluateForkCold:   p.evalForkCold.Load(),

		EvaluateTransfersRerun:  p.evalRerun.Load(),
		EvaluateTransfersCopied: p.evalCopied.Load(),
	}
}

// RunCtx executes fn(0..n-1) over the pool and blocks until all calls
// return. Each batch worker occupies one pool slot, so RunCtx composes
// with concurrent select_fastest and evaluate traffic under the same
// width bound. It has a cancellation point at slot acquisition and
// between items: once ctx is done, items not yet started are skipped
// (running ones finish — a simulation is not interruptible mid-run) and
// the context error is returned. Under a loaded pool this bounds how long
// a deadline-carrying request can wait behind other traffic.
//
// The batch runs on min(pool width, GOMAXPROCS, n) workers, each holding
// one slot and pulling the next index from a shared counter. With one
// worker — always the case on a single-CPU host — the whole batch runs
// inline on the caller under a single slot acquisition: per-item
// goroutine dispatch costs more than a small simulation when there is no
// parallelism to buy. Extra workers beyond GOMAXPROCS would only add
// scheduling overhead for these CPU-bound items, so they are never
// spawned.
func (p *WorkerPool) RunCtx(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	width := cap(p.slots)
	if w := runtime.GOMAXPROCS(0); w < width {
		width = w
	}
	if n < width {
		width = n
	}
	if width <= 1 {
		if !p.acquireCtx(ctx) {
			return ctx.Err()
		}
		defer p.release()
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		if !p.acquireCtx(ctx) {
			return
		}
		defer p.release()
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(width)
	for w := 1; w < width; w++ {
		go worker()
	}
	worker()
	wg.Wait()
	return ctx.Err()
}

// acquireCtx takes a pool slot unless ctx is done first.
func (p *WorkerPool) acquireCtx(ctx context.Context) bool {
	p.queued.Add(1)
	defer p.queued.Add(-1)
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	b := p.busy.Add(1)
	for {
		m := p.maxBusy.Load()
		if b <= m || p.maxBusy.CompareAndSwap(m, b) {
			return true
		}
	}
}

// selectFastest ranks hypotheses under any prediction backend, evaluating
// them concurrently over the pool. Results are deterministic and identical
// to a sequential evaluation: results keep request order, the winner is
// the lowest-index hypothesis with the smallest makespan, and on failure
// the lowest failing index's error is returned.
func (p *WorkerPool) selectFastest(hyps []Hypothesis, predict func([]TransferRequest) ([]Prediction, error)) (best int, results []HypothesisResult, err error) {
	return p.selectFastestCtx(context.Background(), hyps, predict)
}

// selectFastestCtx is selectFastest with the pool fan-out bounded by ctx:
// hypotheses not yet running when ctx expires are skipped and the context
// error is returned.
func (p *WorkerPool) selectFastestCtx(ctx context.Context, hyps []Hypothesis, predict func([]TransferRequest) ([]Prediction, error)) (best int, results []HypothesisResult, err error) {
	if len(hyps) == 0 {
		return 0, nil, fmt.Errorf("pilgrim: no hypotheses")
	}
	p.batches.Add(1)
	results = make([]HypothesisResult, len(hyps))
	errs := make([]error, len(hyps))
	ctxErr := p.RunCtx(ctx, len(hyps), func(i int) {
		preds, err := predict(hyps[i].Transfers)
		if err != nil {
			errs[i] = err
			return
		}
		p.evaluated.Add(1)
		results[i] = hypothesisResult(i, preds)
	})
	if ctxErr != nil {
		return 0, nil, ctxErr
	}
	for i, e := range errs {
		if e != nil {
			return 0, nil, fmt.Errorf("pilgrim: hypothesis %d: %w", i, e)
		}
	}
	return fastest(results), results, nil
}

// hypothesisResult scores one hypothesis: its makespan is its slowest
// transfer.
func hypothesisResult(index int, preds []Prediction) HypothesisResult {
	makespan := 0.0
	for _, p := range preds {
		if p.Duration > makespan {
			makespan = p.Duration
		}
	}
	return HypothesisResult{Index: index, Makespan: makespan, Predictions: preds}
}

// fastest returns the lowest index with the smallest makespan.
func fastest(results []HypothesisResult) int {
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].Makespan < results[best].Makespan {
			best = i
		}
	}
	return best
}

// SelectFastest simulates each hypothesis on the pool directly (no
// forecast cache) and returns all results plus the winning index.
func (p *WorkerPool) SelectFastest(entry PlatformEntry, hyps []Hypothesis) (best int, results []HypothesisResult, err error) {
	return p.selectFastest(hyps, func(transfers []TransferRequest) ([]Prediction, error) {
		return PredictTransfers(entry, transfers, nil)
	})
}

// SelectFastestCachedCtx is SelectFastest routed through a forecast
// cache under a request context: each hypothesis is one cacheable
// prediction, so a scheduler polling the same alternatives repeatedly
// pays for each simulation once — and the misses simulate concurrently.
// It is the HTTP deadline path, answering 504 upstream when ctx expires
// before every hypothesis got a worker.
func (p *WorkerPool) SelectFastestCachedCtx(ctx context.Context, fc *ForecastCache, platform string, entry PlatformEntry, hyps []Hypothesis) (best int, results []HypothesisResult, err error) {
	return p.selectFastestCtx(ctx, hyps, func(transfers []TransferRequest) ([]Prediction, error) {
		return fc.PredictCtx(ctx, platform, entry, transfers, nil)
	})
}

// defaultPool serves the package-level SelectFastest entry points.
var defaultPool = sync.OnceValue(func() *WorkerPool { return NewWorkerPool(0) })
