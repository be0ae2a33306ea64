// Package store implements the durability layer under the pilgrim
// registry: an append-only, CRC-checked write-ahead log of registry
// mutations with periodic snapshot compaction.
//
// The contract is classic WAL: a mutation is logged before it is
// applied, and an acknowledged mutation survives a process kill (subject
// to the configured fsync policy). A restart recovers the newest
// compaction snapshot, replays the log tail on top, truncates any torn
// tail record (a crash mid-append), and hands the merged state to the
// registry — which restores timelines, forecaster banks, and epoch ids
// byte-identically.
//
// On-disk layout (one directory per pilgrimd, the -data-dir flag):
//
//	snap-<seq>.snap   compaction snapshot: full registry state at seq
//	wal-<seq>.log     mutations appended since snapshot <seq>
//
// Both files carry an 8-byte magic header followed by length-prefixed,
// CRC32C-checked JSON records. Snapshots are written to a temp file,
// fsynced, and renamed — they are atomic and never torn; the log absorbs
// the torn-write risk and recovery truncates it at the first short or
// checksum-failing frame. Compaction bumps seq: write snap-<seq+1>, start
// wal-<seq+1>, delete the older generation.
//
// A log record is exactly the bytes json.Marshal(rec) writes, but a
// hand-written codec (codec.go) writes and reads them, since a restart
// decodes every record of the log tail; snapshots stay encoding/json. A
// frame that passes its checksum but does not decode as a record is no
// torn write, and truncating there would drop every acknowledged record
// after it: Open fails instead, naming the segment and the byte offset,
// and leaves the file untouched.
package store

import (
	"pilgrim/internal/nws"
	"pilgrim/internal/platform"
)

// Op identifies a logged registry mutation.
type Op string

const (
	// OpAddPlatform records a platform registration: name, compiled base
	// epoch id, and link count (revalidated on recovery — a WAL replayed
	// onto a different platform build is refused, not silently skewed).
	OpAddPlatform Op = "add_platform"
	// OpObserve records one timestamped observation batch and the epoch
	// id it was assigned.
	OpObserve Op = "observe"
	// OpBgEstimate records a background-traffic estimate registration
	// (empty Flows clears it).
	OpBgEstimate Op = "bg_estimate"
	// OpReject counts one observation batch refused for naming unknown
	// links (the timeline_stats rejected_updates counter).
	OpReject Op = "reject"
)

// Record is one logged registry mutation. Exactly the fields relevant to
// its Op are set.
type Record struct {
	Op       Op     `json:"op"`
	Platform string `json:"platform"`
	// Time and Source attribute an observation (OpObserve) or estimate
	// (OpBgEstimate provenance text in Source).
	Time   int64  `json:"time,omitempty"`
	Source string `json:"source,omitempty"`
	// Epoch is the id assigned to an observation's derived epoch;
	// BaseEpoch is a registration's compiled base epoch id.
	Epoch     uint64 `json:"epoch,omitempty"`
	BaseEpoch uint64 `json:"base_epoch,omitempty"`
	// Links is the registered platform's link count (OpAddPlatform).
	Links   int                   `json:"links,omitempty"`
	Updates []platform.LinkUpdate `json:"updates,omitempty"`
	Flows   [][2]string           `json:"flows,omitempty"`
}

// PlatformState is one platform's full durable state as captured by a
// compaction snapshot: everything the registry needs to restart warm.
type PlatformState struct {
	Name      string `json:"name"`
	BaseEpoch uint64 `json:"base_epoch"`
	Links     int    `json:"links"`
	// Appends/Evictions/Rejects restore the lifetime accounting
	// timeline_stats reports.
	Appends   uint64 `json:"appends"`
	Evictions uint64 `json:"evictions"`
	Rejects   uint64 `json:"rejects"`
	// Entries is the retained observation history, oldest first, with
	// pinned epoch ids.
	Entries []platform.TimelineRecord `json:"entries,omitempty"`
	// Bank is the NWS predictor bank's exact internals — the part of the
	// forecast state that depends on observations the timeline has long
	// evicted.
	Bank     *nws.BankState `json:"bank,omitempty"`
	BgFlows  [][2]string    `json:"bg_flows,omitempty"`
	BgSource string         `json:"bg_source,omitempty"`
}

// State is a whole-registry compaction snapshot.
type State struct {
	// MaxEpoch is the highest epoch id the registry has allocated;
	// recovery floors the process counter above it so restored ids are
	// never reused.
	MaxEpoch  uint64          `json:"max_epoch"`
	Platforms []PlatformState `json:"platforms"`
}

// PlatformRecovery is one platform's merged recovered state: the last
// snapshot's capture plus the log records appended after it, in order.
type PlatformRecovery struct {
	State PlatformState
	// Tail holds the OpObserve/OpBgEstimate/OpReject records logged after
	// the snapshot; the registry replays them through the same paths live
	// mutations take.
	Tail []Record
}

// RecoveredState is everything a restart found on disk.
type RecoveredState struct {
	// MaxEpoch is the highest epoch id seen anywhere — snapshot or log.
	MaxEpoch uint64
	// Platforms maps platform name to its merged state, in no particular
	// order (the registry re-registers platforms by name).
	Platforms map[string]*PlatformRecovery
	// Skipped counts log records that named a platform with no
	// registration on record — tolerated (the log stays replayable) but
	// surfaced, since they indicate a mismatched data directory.
	Skipped int
	// TruncatedBytes is how much torn tail the recovery cut off the log.
	TruncatedBytes int64
}

// maxEpochOf folds a record's epoch ids into the running maximum.
func (r *RecoveredState) noteEpochs(rec *Record) {
	if rec.Epoch > r.MaxEpoch {
		r.MaxEpoch = rec.Epoch
	}
	if rec.BaseEpoch > r.MaxEpoch {
		r.MaxEpoch = rec.BaseEpoch
	}
}

// apply merges one log record into the recovered state.
func (r *RecoveredState) apply(rec Record) {
	r.noteEpochs(&rec)
	switch rec.Op {
	case OpAddPlatform:
		if _, dup := r.Platforms[rec.Platform]; dup {
			r.Skipped++
			return
		}
		r.Platforms[rec.Platform] = &PlatformRecovery{State: PlatformState{
			Name:      rec.Platform,
			BaseEpoch: rec.BaseEpoch,
			Links:     rec.Links,
		}}
	case OpObserve, OpBgEstimate, OpReject:
		pr, ok := r.Platforms[rec.Platform]
		if !ok {
			r.Skipped++
			return
		}
		pr.Tail = append(pr.Tail, rec)
	default:
		r.Skipped++
	}
}
