package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"pilgrim/internal/pilgrim"
)

// This file builds reference answers from the uncached path — the
// simulator called directly, rendered by encoding/json with the server's
// indent — and compares served bytes against them.

// encodeLikeServer renders v the way the server's legacy writer does
// (json.Encoder, indent " ", trailing newline); the pooled hot encoders
// are pinned byte-identical to it by the repo's differential tests.
func encodeLikeServer(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// canonicalOrder returns the indices of transfers sorted by (src, dst,
// size): the order the server simulates a request in, whatever order its
// parameters arrived in. Floating-point sharing sums depend on it, so the
// reference must simulate in the same order to agree to the last digit.
func canonicalOrder(transfers []pilgrim.TransferRequest) []int {
	order := make([]int, len(transfers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := transfers[order[a]], transfers[order[b]]
		if ta.Src != tb.Src {
			return ta.Src < tb.Src
		}
		if ta.Dst != tb.Dst {
			return ta.Dst < tb.Dst
		}
		return ta.Size < tb.Size
	})
	return order
}

// predictReference answers a predict_transfers request without the cache,
// the server or its encoder: one simulation in canonical order, answers
// mapped back to request order.
func predictReference(entry pilgrim.PlatformEntry, transfers []pilgrim.TransferRequest) ([]byte, error) {
	order := canonicalOrder(transfers)
	canonical := make([]pilgrim.TransferRequest, len(transfers))
	for pos, i := range order {
		canonical[pos] = transfers[i]
	}
	preds, err := pilgrim.PredictTransfers(entry, canonical, nil)
	if err != nil {
		return nil, err
	}
	out := make([]pilgrim.Prediction, len(preds))
	for pos, i := range order {
		out[i] = preds[pos]
	}
	return encodeLikeServer(out)
}

// evaluateReference answers an evaluate request with differential
// evaluation disabled and nothing cached: every scenario simulates cold.
// Only the scenario rows are comparable — the stats block reports how the
// answer was computed, which is exactly what differs.
func evaluateReference(reg *pilgrim.Registry, req *pilgrim.EvaluateRequest) ([]byte, error) {
	ev := &pilgrim.Evaluator{
		Platforms:           reg,
		Cache:               pilgrim.NewForecastCache(0),
		Pool:                pilgrim.NewWorkerPool(1),
		DisableDifferential: true,
	}
	resp, err := ev.Evaluate(platformName, *req)
	if err != nil {
		return nil, err
	}
	b, err := encodeLikeServer(resp)
	if err != nil {
		return nil, err
	}
	rows, ok := scenarioRows(b)
	if !ok {
		return nil, fmt.Errorf("reference evaluate answer has no stats block")
	}
	return normalizeEpochs(rows), nil
}

var statsMarker = []byte("\n \"stats\": ")

// scenarioRows cuts an evaluate answer before its stats block.
func scenarioRows(answer []byte) ([]byte, bool) {
	i := bytes.LastIndex(answer, statsMarker)
	if i < 0 {
		return nil, false
	}
	return answer[:i], true
}

// gridTierMix is how the stats block of every whatif-grid answer must
// read: the three tier counters are adjacent in EvaluateStats.
var gridTierMix = []byte(fmt.Sprintf("\"fork_reused\": %d,\n  \"fork_runs\": %d,\n  \"fork_cold\": %d", gridReuse, gridFork, gridCold))

// hasGridTierMix checks the designed 3 reuse / 3 fork / 1 cold split in
// the tail of an evaluate answer.
func hasGridTierMix(answer []byte) bool {
	tail := answer
	if len(tail) > 512 {
		tail = tail[len(tail)-512:]
	}
	return bytes.Contains(tail, gridTierMix)
}

var epochKey = []byte("\"epoch\": ")

// normalizeEpochs rewrites every "epoch": N to "epoch": #k, k being the
// order in which the value N first appears. Epoch ids come from a
// process-wide counter, so two correct servers agree on which rows share
// an epoch but not on the numbers.
func normalizeEpochs(b []byte) []byte {
	var out []byte
	var seen []string
	for {
		i := bytes.Index(b, epochKey)
		if i < 0 {
			return append(out, b...)
		}
		i += len(epochKey)
		j := i
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		id := string(b[i:j])
		k := -1
		for n, s := range seen {
			if s == id {
				k = n
			}
		}
		if k < 0 {
			k = len(seen)
			seen = append(seen, id)
		}
		out = append(out, b[:i]...)
		out = append(out, '#')
		out = strconv.AppendInt(out, int64(k), 10)
		b = b[j:]
	}
}

// updateReference is the update_links answer to a write of n links at
// time t that left the timeline depth deep, epochs normalized.
func updateReference(t int64, n, depth int) ([]byte, error) {
	b, err := encodeLikeServer(pilgrim.UpdateLinksResponse{
		Platform: platformName, Epoch: 1, Updated: n, Time: t, Source: writeSource, Depth: depth,
	})
	if err != nil {
		return nil, err
	}
	return normalizeEpochs(b), nil
}
