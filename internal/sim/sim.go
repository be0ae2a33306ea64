package sim

import (
	"fmt"

	"pilgrim/internal/platform"
)

// Transfer is one TCP transfer to simulate: size bytes from Src to Dst,
// departing at Start (simulated seconds).
type Transfer struct {
	Src   string
	Dst   string
	Size  float64
	Start float64
}

// TransferResult reports the simulated outcome of one Transfer.
type TransferResult struct {
	Transfer
	// Completion is the absolute simulated date the last byte arrived.
	Completion float64
	// Duration is Completion - Start: the predicted transfer completion
	// time PNFS returns.
	Duration float64
}

// Simulation is the batch façade over Engine.RunQuery: declare a set of
// concurrent transfers, Run, and read the predicted completion times. It
// mirrors the paper's use of SimGrid — "a simulation is
// instantiated, containing one send and one receive process for each
// requested transfer" (§IV-C2) — without the process-API overhead.
type Simulation struct {
	engine *Engine
	query  PlanQuery
	ran    bool
}

// NewSnapshotSimulation creates a simulation over one compiled platform
// epoch with the given model configuration — the entry point of the
// measure→update→forecast loop, where each forecast must be answered
// against a specific link-state picture.
func NewSnapshotSimulation(snap *platform.Snapshot, cfg Config) *Simulation {
	return &Simulation{engine: NewEngineSnapshot(snap, cfg)}
}

// NewPooledSnapshotSimulation is NewSnapshotSimulation over a recycled
// engine from the process-wide pool (see AcquireEngineSnapshot). The
// behaviour is identical; the caller must call Release once the results
// have been read.
func NewPooledSnapshotSimulation(snap *platform.Snapshot, cfg Config) *Simulation {
	return &Simulation{engine: AcquireEngineSnapshot(snap, cfg)}
}

// Release returns a pooled simulation's engine to the pool. The
// simulation (and any result indices into its engine) must not be used
// afterwards. Safe to call on non-pooled simulations and more than once.
func (s *Simulation) Release() {
	e := s.engine
	s.engine = nil
	ReleaseEngine(e)
}

// AddTransfer declares a transfer starting at simulated time 0.
func (s *Simulation) AddTransfer(src, dst string, size float64) {
	s.AddTransferAt(src, dst, size, 0)
}

// AddTransferAt declares a transfer with an explicit start date.
func (s *Simulation) AddTransferAt(src, dst string, size, start float64) {
	s.query.Transfers = append(s.query.Transfers, Transfer{Src: src, Dst: dst, Size: size, Start: start})
}

// AddBackgroundFlow declares a persistent contending flow (cross-traffic)
// present from simulated time 0.
func (s *Simulation) AddBackgroundFlow(src, dst string) {
	s.query.Background = append(s.query.Background, [2]string{src, dst})
}

// Run simulates all declared transfers and returns their results in
// declaration order. Run may only be called once per Simulation.
func (s *Simulation) Run() ([]TransferResult, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	done := make([]float64, len(s.query.Transfers))
	if err := s.engine.RunQuery(&s.query, done); err != nil {
		return nil, err
	}
	return transferResults(s.query.Transfers, done), nil
}

// Engine exposes the underlying engine (benchmarks read Resharings).
func (s *Simulation) Engine() *Engine { return s.engine }

// Predict is a convenience one-shot: simulate the given concurrent
// transfers on snap and return their durations. The engine comes from
// (and returns to) the process-wide pool.
func Predict(snap *platform.Snapshot, cfg Config, transfers []Transfer) ([]TransferResult, error) {
	s := NewPooledSnapshotSimulation(snap, cfg)
	defer s.Release()
	for _, t := range transfers {
		s.AddTransferAt(t.Src, t.Dst, t.Size, t.Start)
	}
	return s.Run()
}
