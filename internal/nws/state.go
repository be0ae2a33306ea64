package nws

// This file implements predictor state serialization for durable
// restarts. A Selector's forecast is a deterministic function of the
// full observation history — including observations long evicted from
// the platform timeline — so a crash-recovered pilgrimd can only answer
// byte-identical forecasts if the predictor internals (sliding windows,
// smoothed values, cumulative per-predictor error) are captured exactly.
// The WAL's snapshot compaction exports the bank state here; recovery
// imports it and replays only the log tail.
//
// State is carried in JSON-friendly structures. Go's encoding/json
// round-trips finite float64 values exactly (shortest-representation
// encoding), and every value the battery holds is finite — the registry
// rewrites a non-finite observed bandwidth or latency to the keep-current
// sentinel before it logs or applies a batch, and the bank learns only
// values that enter the epoch — so export→encode→decode→import reproduces
// bit-identical forecasts. A sliding window's ring buffer is the exported
// state; the median's sorted copy of it is rebuilt on import.

import (
	"errors"
	"fmt"
)

// ForecasterState is the serializable state of one battery predictor.
// Which fields are used depends on the predictor; Name pins the layout
// so an import into a mismatched battery fails loudly instead of
// silently skewing forecasts.
type ForecasterState struct {
	Name string `json:"name"`
	// Vals holds scalar state words (meaning per predictor kind).
	Vals []float64 `json:"vals,omitempty"`
	// Win/Head/Full capture a sliding window's raw ring buffer.
	Win  []float64 `json:"win,omitempty"`
	Head int       `json:"head,omitempty"`
	Full bool      `json:"full,omitempty"`
}

// SelectorState is the serializable state of a Selector: the observation
// count, the cumulative absolute error per predictor, and each
// predictor's internals, in battery order.
type SelectorState struct {
	N           int               `json:"n"`
	MAE         []float64         `json:"mae"`
	Forecasters []ForecasterState `json:"forecasters"`
}

// stateful is implemented by every battery predictor that can export and
// restore its internals.
type stateful interface {
	exportState() ForecasterState
	importState(ForecasterState) error
}

func boolWord(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (l *lastValue) exportState() ForecasterState {
	return ForecasterState{Name: l.Name(), Vals: []float64{l.v, boolWord(l.ok)}}
}

func (l *lastValue) importState(st ForecasterState) error {
	if len(st.Vals) != 2 {
		return fmt.Errorf("nws: %s state wants 2 vals, got %d", l.Name(), len(st.Vals))
	}
	l.v, l.ok = st.Vals[0], st.Vals[1] != 0
	return nil
}

func (r *runningMean) exportState() ForecasterState {
	return ForecasterState{Name: r.Name(), Vals: []float64{r.sum, float64(r.n)}}
}

func (r *runningMean) importState(st ForecasterState) error {
	if len(st.Vals) != 2 {
		return fmt.Errorf("nws: %s state wants 2 vals, got %d", r.Name(), len(st.Vals))
	}
	r.sum, r.n = st.Vals[0], int(st.Vals[1])
	return nil
}

func (w *window) exportInto(st *ForecasterState) {
	st.Win = append([]float64(nil), w.buf...)
	st.Head = w.head
	st.Full = w.full
}

func (w *window) importFrom(st ForecasterState, name string) error {
	if len(st.Win) != len(w.buf) {
		return fmt.Errorf("nws: %s window wants %d samples, got %d", name, len(w.buf), len(st.Win))
	}
	if st.Head < 0 || st.Head >= len(w.buf) {
		return fmt.Errorf("nws: %s window head %d out of range", name, st.Head)
	}
	copy(w.buf, st.Win)
	w.head = st.Head
	w.full = st.Full
	return nil
}

func (s *slidingMean) exportState() ForecasterState {
	st := ForecasterState{Name: s.Name()}
	s.w.exportInto(&st)
	return st
}

func (s *slidingMean) importState(st ForecasterState) error {
	return s.w.importFrom(st, s.Name())
}

func (s *slidingMedian) exportState() ForecasterState {
	st := ForecasterState{Name: s.Name()}
	s.w.exportInto(&st)
	return st
}

func (s *slidingMedian) importState(st ForecasterState) error {
	if err := s.w.importFrom(st, s.Name()); err != nil {
		return err
	}
	s.rebuild()
	return nil
}

func (e *expSmoothing) exportState() ForecasterState {
	return ForecasterState{Name: e.Name(), Vals: []float64{e.v, boolWord(e.ok)}}
}

func (e *expSmoothing) importState(st ForecasterState) error {
	if len(st.Vals) != 2 {
		return fmt.Errorf("nws: %s state wants 2 vals, got %d", e.Name(), len(st.Vals))
	}
	e.v, e.ok = st.Vals[0], st.Vals[1] != 0
	return nil
}

// ExportState captures the selector's full internals.
func (s *Selector) ExportState() SelectorState {
	st := SelectorState{
		N:           s.n,
		MAE:         append([]float64(nil), s.mae...),
		Forecasters: make([]ForecasterState, len(s.fs)),
	}
	for i, f := range s.fs {
		sf, ok := f.(stateful)
		if !ok {
			// Custom predictors without state support export empty state and
			// restore cold; the standard battery is fully covered.
			st.Forecasters[i] = ForecasterState{Name: f.Name()}
			continue
		}
		st.Forecasters[i] = sf.exportState()
	}
	return st
}

// ImportState restores a previously exported state into this selector.
// The battery must match the exporting selector's predictor-for-predictor
// (names are compared); a mismatch fails without partial mutation of the
// error accounting.
func (s *Selector) ImportState(st SelectorState) error {
	if len(st.Forecasters) != len(s.fs) || len(st.MAE) != len(s.mae) {
		return fmt.Errorf("nws: selector state has %d predictors, battery has %d",
			len(st.Forecasters), len(s.fs))
	}
	for i, f := range s.fs {
		if st.Forecasters[i].Name != f.Name() {
			return fmt.Errorf("nws: selector state predictor %d is %q, battery has %q",
				i, st.Forecasters[i].Name, f.Name())
		}
	}
	for i, f := range s.fs {
		if sf, ok := f.(stateful); ok {
			if err := sf.importState(st.Forecasters[i]); err != nil {
				return err
			}
		}
	}
	s.n = st.N
	copy(s.mae, st.MAE)
	return nil
}

// BankLinkState is one observed link's predictor state: the dense link
// index and the bandwidth/latency selectors (nil when that series has no
// observations).
type BankLinkState struct {
	Link      int32          `json:"link"`
	Bandwidth *SelectorState `json:"bandwidth,omitempty"`
	Latency   *SelectorState `json:"latency,omitempty"`
}

// BankState is the serializable state of a whole forecaster bank, links
// in first-observation order (the bank's forecast-drain iteration order,
// preserved so restored forecast epochs list updates identically).
type BankState struct {
	Links    int             `json:"links"`
	Observed []BankLinkState `json:"observed,omitempty"`
}

// ExportState captures the bank's full predictor state.
func (b *Bank) ExportState() BankState {
	st := BankState{Links: b.NumLinks(), Observed: make([]BankLinkState, 0, len(b.observed))}
	for _, li := range b.observed {
		ls := BankLinkState{Link: li}
		if s := b.bw[li]; s != nil {
			es := s.ExportState()
			ls.Bandwidth = &es
		}
		if s := b.lat[li]; s != nil {
			es := s.ExportState()
			ls.Latency = &es
		}
		st.Observed = append(st.Observed, ls)
	}
	return st
}

// NewBankFromState rebuilds a bank from exported state. The restored bank
// observes, selects, and forecasts exactly as the exporting bank did at
// capture time.
func NewBankFromState(st BankState) (*Bank, error) {
	if st.Links < 0 {
		return nil, errors.New("nws: negative link count in bank state")
	}
	b := NewBank(st.Links)
	for _, ls := range st.Observed {
		if ls.Link < 0 || int(ls.Link) >= st.Links {
			return nil, fmt.Errorf("nws: bank state link %d out of range [0, %d)", ls.Link, st.Links)
		}
		if b.seen[ls.Link] {
			return nil, fmt.Errorf("nws: bank state lists link %d twice", ls.Link)
		}
		b.note(ls.Link)
		if ls.Bandwidth != nil {
			s := NewSelector()
			if err := s.ImportState(*ls.Bandwidth); err != nil {
				return nil, fmt.Errorf("nws: link %d bandwidth: %w", ls.Link, err)
			}
			b.bw[ls.Link] = s
		}
		if ls.Latency != nil {
			s := NewSelector()
			if err := s.ImportState(*ls.Latency); err != nil {
				return nil, fmt.Errorf("nws: link %d latency: %w", ls.Link, err)
			}
			b.lat[ls.Link] = s
		}
	}
	return b, nil
}
