package sim

import (
	"fmt"

	"pilgrim/internal/platform"
)

// This file implements the batch plan runner behind scenario evaluation:
// a plan is a list of independent queries — each a set of concurrent
// transfers plus persistent background flows — all answered against ONE
// compiled platform epoch. Running them as a plan acquires a single
// pooled engine for the whole batch and Resets it between queries, so an
// N-query scenario pays one engine acquisition and allocates like a
// single warm simulation instead of N cold ones. Reset restores the
// engine to an observably fresh state (ids, solver serials), so plan
// results are bit-identical to running each query on its own engine.

// PlanQuery is one query of a batch plan.
type PlanQuery struct {
	// Transfers all depart at simulated time 0 and contend with each
	// other (and the background flows) for the whole simulation.
	Transfers []Transfer
	// Background flows are persistent cross-traffic streams present from
	// time 0.
	Background [][2]string
}

// PlanResult is the outcome of one plan query: the per-transfer results
// in declaration order, or the error that stopped this query. A failing
// query never aborts the rest of the plan — scenario sweeps routinely
// contain hypotheses that cannot run (a transfer routed over a failed
// link), and the caller wants the other cells answered.
type PlanResult struct {
	Results []TransferResult
	Err     error
}

// RunPlan evaluates every query of the plan against the given snapshot,
// reusing one pooled engine across the whole batch. Results are in query
// order and bit-identical to running each query through its own
// Simulation.
func RunPlan(snap *platform.Snapshot, cfg Config, queries []PlanQuery) []PlanResult {
	out := make([]PlanResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	e := AcquireEngineSnapshot(snap, cfg)
	defer ReleaseEngine(e)
	for qi := range queries {
		if qi > 0 {
			e.Reset()
		}
		out[qi] = runPlanQuery(e, &queries[qi])
	}
	return out
}

// runPlanQuery mirrors Simulation.Run on a caller-owned engine:
// background flows first, then transfers (with no completion callbacks —
// results are read from the Done ledger), then run to completion.
func runPlanQuery(e *Engine, q *PlanQuery) PlanResult {
	if len(q.Transfers) == 0 {
		return PlanResult{Err: fmt.Errorf("sim: plan query has no transfers")}
	}
	for _, bg := range q.Background {
		if _, err := e.AddBackgroundFlow(bg[0], bg[1], 0); err != nil {
			return PlanResult{Err: fmt.Errorf("sim: background flow %s->%s: %w", bg[0], bg[1], err)}
		}
	}
	ids := make([]ActivityID, len(q.Transfers))
	for i, t := range q.Transfers {
		id, err := e.AddComm(t.Src, t.Dst, t.Size, t.Start, nil)
		if err != nil {
			return PlanResult{Err: fmt.Errorf("sim: transfer %s->%s: %w", t.Src, t.Dst, err)}
		}
		ids[i] = id
	}
	n, err := e.RunToCompletion()
	if err != nil {
		return PlanResult{Err: err}
	}
	if n != len(q.Transfers) {
		return PlanResult{Err: fmt.Errorf("sim: %d of %d transfers completed", n, len(q.Transfers))}
	}
	results := make([]TransferResult, len(q.Transfers))
	for i, t := range q.Transfers {
		done, at := e.Done(ids[i])
		if !done {
			return PlanResult{Err: fmt.Errorf("sim: transfer %s->%s did not complete", t.Src, t.Dst)}
		}
		results[i] = TransferResult{Transfer: t, Completion: at, Duration: at - t.Start}
	}
	return PlanResult{Results: results}
}
