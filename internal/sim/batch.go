package sim

import (
	"fmt"

	"pilgrim/internal/platform"
)

// This file is the one way a set of transfers becomes completion dates:
// RunQuery runs a query — concurrent transfers plus persistent background
// flows — on an engine and copies each transfer's completion date out of
// the engine's Done ledger into storage the caller owns. There are no
// per-transfer callbacks and no result structs, so a run on a pooled
// engine allocates nothing; the forecast service builds the answer it
// caches straight from the dates. Simulation.Run, RunPlan and RunPlanDiff
// are adapters that wrap the dates into TransferResults.
//
// A plan is a list of independent queries all answered against ONE
// compiled platform epoch. Running them as a plan acquires a single pooled
// engine for the whole batch and Resets it between queries, so an N-query
// scenario pays one engine acquisition and allocates like a single warm
// simulation instead of N cold ones. Reset restores the engine to an
// observably fresh state (ids, solver serials), so plan results are
// bit-identical to running each query on its own engine.

// PlanQuery is one query of a batch plan.
type PlanQuery struct {
	// Transfers depart at their Start dates (time 0 for every query the
	// forecast service builds) and contend with each other (and the
	// background flows) for the whole simulation.
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

// RunQuery simulates q on e and writes the completion date of
// q.Transfers[i] into done[i] (done must hold at least len(q.Transfers)
// values). The query starts from simulated time zero on an empty engine:
// an engine that has run anything since its last Reset is Reset first, so
// a pooled engine can answer query after query. Background flows are
// declared first, then the transfers; on error done is left partly
// written. The engine keeps the run's state (SharingStats) until its next
// query, Reset or release.
func (e *Engine) RunQuery(q *PlanQuery, done []float64) error {
	if e.nextID != 0 {
		e.Reset()
	}
	for _, bg := range q.Background {
		if _, err := e.AddBackgroundFlow(bg[0], bg[1], 0); err != nil {
			return fmt.Errorf("sim: background flow %s->%s: %w", bg[0], bg[1], err)
		}
	}
	// Ids are handed out in declaration order, so transfer i is activity
	// first+i in the ledger.
	first := e.nextID
	for _, t := range q.Transfers {
		if _, err := e.AddComm(t.Src, t.Dst, t.Size, t.Start); err != nil {
			return fmt.Errorf("sim: transfer %s->%s: %w", t.Src, t.Dst, err)
		}
	}
	n, err := e.RunToCompletion(nil)
	if err != nil {
		return err
	}
	if n != len(q.Transfers) {
		return fmt.Errorf("sim: %d of %d transfers completed", n, len(q.Transfers))
	}
	for i, t := range q.Transfers {
		ok, at := e.Done(first + ActivityID(i))
		if !ok {
			return fmt.Errorf("sim: transfer %s->%s did not complete", t.Src, t.Dst)
		}
		done[i] = at
	}
	return nil
}

// transferResults pairs transfers with their completion dates.
func transferResults(transfers []Transfer, done []float64) []TransferResult {
	results := make([]TransferResult, len(transfers))
	for i, t := range transfers {
		results[i] = TransferResult{Transfer: t, Completion: done[i], Duration: done[i] - t.Start}
	}
	return results
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
		out[qi] = runPlanQuery(e, &queries[qi])
	}
	return out
}

// runPlanQuery answers one plan query on e.
func runPlanQuery(e *Engine, q *PlanQuery) PlanResult {
	if len(q.Transfers) == 0 {
		return PlanResult{Err: fmt.Errorf("sim: plan query has no transfers")}
	}
	done := make([]float64, len(q.Transfers))
	if err := e.RunQuery(q, done); err != nil {
		return PlanResult{Err: err}
	}
	return PlanResult{Results: transferResults(q.Transfers, done)}
}
