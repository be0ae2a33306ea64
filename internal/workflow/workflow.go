// Package workflow implements the paper's principal future-work feature
// (§VI): forecasting "not only network transfers but also full workflows
// involving computations and network transfers". This is why Pilgrim
// chose a SimGrid-style simulator — "adding the simulation of computation
// will be straightforward" — and with the fluid engine's computation
// activities it is.
//
// A workflow is a DAG of tasks. Compute tasks burn flops on a host;
// transfer tasks move bytes between hosts; a task starts when all its
// dependencies have completed. Predict simulates the whole DAG on a
// platform, with all the network contention between concurrent transfers
// the fluid model captures, and returns per-task schedules plus the
// makespan.
package workflow

import (
	"fmt"
	"sort"

	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// TaskKind discriminates workflow tasks.
type TaskKind int

// Task kinds.
const (
	// Compute burns Flops on Host.
	Compute TaskKind = iota
	// TransferData moves Bytes from Src to Dst.
	TransferData
)

// String returns the JSON spelling of the kind.
func (k TaskKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case TransferData:
		return "transfer"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// Task is one node of the workflow DAG.
type Task struct {
	// ID names the task; unique within the workflow.
	ID string `json:"id"`
	// Kind selects compute vs transfer semantics.
	Kind TaskKind `json:"-"`
	// KindName is the JSON form of Kind ("compute" | "transfer").
	KindName string `json:"kind"`
	// Host and Flops describe a compute task.
	Host  string  `json:"host,omitempty"`
	Flops float64 `json:"flops,omitempty"`
	// Src, Dst and Bytes describe a transfer task.
	Src   string  `json:"src,omitempty"`
	Dst   string  `json:"dst,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
	// DependsOn lists task IDs that must complete first.
	DependsOn []string `json:"depends_on,omitempty"`
}

// normalize fills Kind from KindName (for JSON-decoded tasks).
func (t *Task) normalize() error {
	switch t.KindName {
	case "compute":
		t.Kind = Compute
	case "transfer":
		t.Kind = TransferData
	case "":
		// Programmatic construction: trust Kind, fill KindName.
		t.KindName = t.Kind.String()
	default:
		return fmt.Errorf("workflow: task %q has unknown kind %q", t.ID, t.KindName)
	}
	return nil
}

// Workflow is a named DAG of tasks.
type Workflow struct {
	Name  string `json:"name"`
	Tasks []Task `json:"tasks"`
}

// Validate checks IDs, parameters and acyclicity, and returns a
// topological order of task indices.
func (w *Workflow) Validate() ([]int, error) {
	if len(w.Tasks) == 0 {
		return nil, fmt.Errorf("workflow: %q has no tasks", w.Name)
	}
	byID := make(map[string]int, len(w.Tasks))
	for i := range w.Tasks {
		t := &w.Tasks[i]
		if err := t.normalize(); err != nil {
			return nil, err
		}
		if t.ID == "" {
			return nil, fmt.Errorf("workflow: task %d has no id", i)
		}
		if _, dup := byID[t.ID]; dup {
			return nil, fmt.Errorf("workflow: duplicate task id %q", t.ID)
		}
		byID[t.ID] = i
		switch t.Kind {
		case Compute:
			if t.Host == "" || t.Flops <= 0 {
				return nil, fmt.Errorf("workflow: compute task %q needs host and positive flops", t.ID)
			}
		case TransferData:
			if t.Src == "" || t.Dst == "" || t.Bytes <= 0 {
				return nil, fmt.Errorf("workflow: transfer task %q needs src, dst and positive bytes", t.ID)
			}
		}
	}
	// Kahn's algorithm for cycle detection + topological order.
	indeg := make([]int, len(w.Tasks))
	succ := make([][]int, len(w.Tasks))
	for i := range w.Tasks {
		for _, dep := range w.Tasks[i].DependsOn {
			j, ok := byID[dep]
			if !ok {
				return nil, fmt.Errorf("workflow: task %q depends on unknown task %q", w.Tasks[i].ID, dep)
			}
			if j == i {
				return nil, fmt.Errorf("workflow: task %q depends on itself", w.Tasks[i].ID)
			}
			succ[j] = append(succ[j], i)
			indeg[i]++
		}
	}
	var queue, order []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue) // deterministic order
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != len(w.Tasks) {
		return nil, fmt.Errorf("workflow: %q contains a dependency cycle", w.Name)
	}
	return order, nil
}

// TaskSchedule reports the simulated execution window of one task.
type TaskSchedule struct {
	ID     string  `json:"id"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// Forecast is the simulated outcome of a workflow.
type Forecast struct {
	Name     string         `json:"name"`
	Makespan float64        `json:"makespan"`
	Tasks    []TaskSchedule `json:"tasks"`
}

// Predict simulates the workflow on one compiled platform epoch and
// returns the schedule. Independent tasks run concurrently and contend
// for hosts and links exactly as the fluid model dictates. Taking a
// Snapshot (rather than the builder *platform.Platform of earlier
// versions) lets workflows participate in everything epochs can express:
// at=T timeline/forecast queries, and scenario overlays with degraded or
// failed resources — a task on a failed host, or a transfer routed over a
// failed link, fails the forecast with a precise error.
func Predict(snap *platform.Snapshot, cfg sim.Config, w *Workflow) (*Forecast, error) {
	return PredictWithBackground(snap, cfg, w, nil)
}

// PredictWithBackground is Predict with persistent background flows
// (scenario-injected cross-traffic) contending with the workflow's
// transfers from simulated time 0.
func PredictWithBackground(snap *platform.Snapshot, cfg sim.Config, w *Workflow, background [][2]string) (*Forecast, error) {
	if _, err := w.Validate(); err != nil {
		return nil, err
	}
	// The engine comes from (and returns to) the process-wide pool; a
	// recycled engine is bit-identical to a fresh one.
	engine := sim.AcquireEngineSnapshot(snap, cfg)
	defer sim.ReleaseEngine(engine)
	for _, bg := range background {
		if _, err := engine.AddBackgroundFlow(bg[0], bg[1], 0); err != nil {
			return nil, fmt.Errorf("workflow: background flow %s->%s: %w", bg[0], bg[1], err)
		}
	}

	n := len(w.Tasks)
	byID := make(map[string]int, n)
	for i := range w.Tasks {
		byID[w.Tasks[i].ID] = i
	}
	succ := make([][]int, n)
	pending := make([]int, n) // outstanding dependency count
	for i := range w.Tasks {
		for _, dep := range w.Tasks[i].DependsOn {
			j := byID[dep]
			succ[j] = append(succ[j], i)
			pending[i]++
		}
	}

	schedules := make([]TaskSchedule, n)
	started := make([]bool, n)
	taskOf := make(map[sim.ActivityID]int, n)

	startTask := func(i int, now float64) error {
		t := &w.Tasks[i]
		started[i] = true
		schedules[i] = TaskSchedule{ID: t.ID, Start: now}
		var id sim.ActivityID
		var err error
		switch t.Kind {
		case Compute:
			id, err = engine.AddExec(t.Host, t.Flops, now)
		case TransferData:
			id, err = engine.AddComm(t.Src, t.Dst, t.Bytes, now)
		default:
			err = fmt.Errorf("workflow: task %q has invalid kind", t.ID)
		}
		if err != nil {
			return err
		}
		taskOf[id] = i
		return nil
	}
	for i := range w.Tasks {
		if pending[i] == 0 {
			if err := startTask(i, 0); err != nil {
				return nil, err
			}
		}
	}
	// Dependents start at the instant their last dependency completes.
	// Starting can fail on hosts Validate cannot know (unknown or down in
	// this epoch); the run stops with that error.
	observe := func(id sim.ActivityID) error {
		i := taskOf[id]
		now := engine.Now()
		schedules[i].Finish = now
		for _, j := range succ[i] {
			pending[j]--
			if pending[j] == 0 && !started[j] {
				if err := startTask(j, now); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if _, err := engine.RunToCompletion(observe); err != nil {
		return nil, err
	}

	f := &Forecast{Name: w.Name, Tasks: schedules}
	for i := range schedules {
		if !started[i] {
			return nil, fmt.Errorf("workflow: task %q never became ready", w.Tasks[i].ID)
		}
		if schedules[i].Finish > f.Makespan {
			f.Makespan = schedules[i].Finish
		}
	}
	return f, nil
}
