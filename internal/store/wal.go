package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	walMagic  = "PILGWAL1"
	snapMagic = "PILGSNP1"

	// maxRecordBytes guards recovery against interpreting garbage as an
	// absurd record length and allocating accordingly: any frame claiming
	// more is treated as the torn tail.
	maxRecordBytes = 64 << 20

	// DefaultFsyncInterval is how often the background syncer flushes
	// under FsyncInterval.
	DefaultFsyncInterval = 100 * time.Millisecond
	// DefaultCompactEvery is the log-segment record count that triggers
	// snapshot compaction.
	DefaultCompactEvery = 4096
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects the durability/throughput trade-off for log
// appends.
type FsyncPolicy int

const (
	// FsyncInterval (the default) lets a background syncer fsync the log
	// every Options.FsyncInterval: a kill loses at most one interval of
	// acknowledged mutations, an OS crash aside nothing is lost to
	// process death (records are written straight to the file, the page
	// cache holds them).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every append: no acknowledged mutation is
	// ever lost, at a per-request disk-flush cost.
	FsyncAlways
	// FsyncNever leaves flushing entirely to the OS (and Close).
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy maps the -fsync flag values onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncInterval, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configures a WAL.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Fsync selects the append durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is the background flush cadence under FsyncInterval
	// (<= 0 selects DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CompactEvery is the per-segment record count after which
	// NeedsCompaction reports true (<= 0 selects DefaultCompactEvery).
	CompactEvery int
}

// WALStats is the accounting surfaced alongside cache_stats; the metric
// tags name the fields' pilgrimd /metrics families.
type WALStats struct {
	Dir            string `json:"dir"`
	Fsync          string `json:"fsync"`
	Seq            uint64 `json:"seq" metric:"-"`
	SegmentRecords int    `json:"segment_records" metric:"pilgrim_store_segment_records" help:"Records in the live WAL segment."`
	Appends        uint64 `json:"appends" metric:"pilgrim_store_appends_total" help:"WAL records appended."`
	Compactions    uint64 `json:"compactions" metric:"pilgrim_store_compactions_total" help:"WAL snapshot compactions."`
	// Fsyncs counts log fsyncs actually issued (per-record under
	// `always`, per dirty tick under `interval`, explicit Sync/Close) —
	// the durability cost metric.
	Fsyncs uint64 `json:"fsyncs" metric:"pilgrim_store_fsyncs_total" help:"WAL fsyncs issued (see -fsync policy)."`
	// RecoveredRecords/RecoveredSkipped/TruncatedBytes describe what Open
	// found: replayed tail records, records it had to skip, and torn
	// bytes cut off the log.
	RecoveredRecords int   `json:"recovered_records" metric:"-"`
	RecoveredSkipped int   `json:"recovered_skipped" metric:"-"`
	TruncatedBytes   int64 `json:"truncated_bytes" metric:"-"`
}

// WAL is the append-only mutation log plus its snapshot generations. All
// methods are safe for concurrent use, though the registry additionally
// serializes Compact against appenders (compaction captures registry
// state that must match the log cut point exactly).
type WAL struct {
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    uint64
	recs   int
	dirty  bool
	closed bool
	buf    []byte

	appends     uint64
	compactions uint64
	fsyncs      uint64
	recRecords  int
	recSkipped  int
	recTrunc    int64

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the data directory, recovers the
// newest valid snapshot generation plus its log tail — truncating any
// torn tail record — deletes stale generations, and leaves the log ready
// for appends. The returned RecoveredState is what the registry warms up
// from; on a fresh directory it is empty, never nil.
func Open(opts Options) (*WAL, *RecoveredState, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("store: empty data directory")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating data dir: %w", err)
	}

	w := &WAL{opts: opts}
	rec, err := w.recover()
	if err != nil {
		return nil, nil, err
	}
	if opts.Fsync == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, rec, nil
}

// snapPath/walPath name generation seq's files.
func (w *WAL) snapPath(seq uint64) string {
	return filepath.Join(w.opts.Dir, fmt.Sprintf("snap-%08d.snap", seq))
}

func (w *WAL) walPath(seq uint64) string {
	return filepath.Join(w.opts.Dir, fmt.Sprintf("wal-%08d.log", seq))
}

// generations scans the data directory for snapshot/log sequence
// numbers, newest first, dropping stray temp files from an interrupted
// compaction.
func (w *WAL) generations() ([]uint64, error) {
	names, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning data dir: %w", err)
	}
	seen := map[uint64]bool{}
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(w.opts.Dir, name))
			continue
		}
		var seq uint64
		if n, err := fmt.Sscanf(name, "snap-%d.snap", &seq); n == 1 && err == nil {
			seen[seq] = true
			continue
		}
		if n, err := fmt.Sscanf(name, "wal-%d.log", &seq); n == 1 && err == nil {
			seen[seq] = true
		}
	}
	gens := make([]uint64, 0, len(seen))
	for seq := range seen {
		gens = append(gens, seq)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens, nil
}

// recover picks the newest generation whose snapshot (if any) loads
// cleanly, replays its log with torn-tail truncation, opens the log for
// append, and deletes every other generation.
func (w *WAL) recover() (*RecoveredState, error) {
	gens, err := w.generations()
	if err != nil {
		return nil, err
	}

	rec := &RecoveredState{Platforms: map[string]*PlatformRecovery{}}
	w.seq = 1
	picked := false
	for _, seq := range gens {
		cand := &RecoveredState{Platforms: map[string]*PlatformRecovery{}}
		if _, err := os.Stat(w.snapPath(seq)); err == nil {
			state, err := readSnapshot(w.snapPath(seq))
			if err != nil {
				// An unreadable snapshot orphans its generation; fall back to
				// the previous one rather than refuse to start.
				continue
			}
			cand.MaxEpoch = state.MaxEpoch
			for _, ps := range state.Platforms {
				ps := ps
				cand.Platforms[ps.Name] = &PlatformRecovery{State: ps}
				if ps.BaseEpoch > cand.MaxEpoch {
					cand.MaxEpoch = ps.BaseEpoch
				}
				for _, e := range ps.Entries {
					if e.Epoch > cand.MaxEpoch {
						cand.MaxEpoch = e.Epoch
					}
				}
			}
		}
		rec, w.seq, picked = cand, seq, true
		break
	}

	if err := w.openSegment(rec); err != nil {
		return nil, err
	}

	// Everything outside the picked generation is stale: older
	// generations superseded by the snapshot, newer ones orphaned by a
	// corrupt snapshot.
	for _, seq := range gens {
		if picked && seq == w.seq {
			continue
		}
		os.Remove(w.snapPath(seq))
		os.Remove(w.walPath(seq))
	}

	w.recRecords = w.recs
	w.recSkipped = rec.Skipped
	w.recTrunc = rec.TruncatedBytes
	return rec, nil
}

// openSegment replays and opens wal-<w.seq> for append, creating it
// (with header) if missing, truncating any torn tail, and folding its
// records into rec.
func (w *WAL) openSegment(rec *RecoveredState) error {
	path := w.walPath(w.seq)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reading log: %w", err)
	}
	records, valid, err := parseLog(data, rec)
	if err != nil {
		// Checksummed yet undecodable is not a torn write: truncating here
		// would drop every acknowledged record after it. Leave the file as
		// it is for an operator to inspect.
		return fmt.Errorf("store: %s: %w", path, err)
	}
	w.recs = records

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening log: %w", err)
	}
	if valid < int64(len(data)) {
		rec.TruncatedBytes += int64(len(data)) - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn log tail: %w", err)
		}
	}
	if valid == 0 {
		// Fresh file, or a header so torn it never identified itself.
		if err := f.Truncate(0); err == nil {
			_, err = f.Write([]byte(walMagic))
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("store: writing log header: %w", err)
		}
		valid = int64(len(walMagic))
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing log header: %w", err)
		}
		if err := syncDir(w.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking log tail: %w", err)
	}
	w.f = f
	return nil
}

// parseLog walks a log image, folding its records into rec, and returns
// how many it found plus the byte length of the valid prefix. A
// missing/torn header yields length 0 (the caller rewrites it); the first
// short, oversized or CRC-mismatched frame ends the walk as the torn tail.
// A frame that passes its CRC but does not decode is an error naming its
// offset.
func parseLog(data []byte, rec *RecoveredState) (int, int64, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, 0, nil
	}
	var dec recordDecoder
	records, off := 0, int64(len(walMagic))
	for {
		frame, n := parseFrame(data, off)
		if frame == nil {
			return records, off, nil
		}
		var r Record
		if err := dec.decode(frame, &r); err != nil {
			return 0, 0, fmt.Errorf("record at byte offset %d passes its checksum but does not decode: %w", off, err)
		}
		rec.apply(r)
		records++
		off = n
	}
}

// parseFrame decodes the frame at off: [u32 len][u32 crc32c][payload].
// Returns the payload and the offset past it, or nil if the bytes at off
// are not a complete, checksummed frame.
func parseFrame(data []byte, off int64) ([]byte, int64) {
	if off+8 > int64(len(data)) {
		return nil, 0
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxRecordBytes || off+8+n > int64(len(data)) {
		return nil, 0
	}
	payload := data[off+8 : off+8+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0
	}
	return payload, off + 8 + n
}

// appendFrame frames payload into buf.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), payload...)
	sealFrame(buf[start:])
	return buf
}

// frameRecord appends rec as one frame to buf, encoding it in place.
func frameRecord(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	buf, err := appendRecord(append(buf, 0, 0, 0, 0, 0, 0, 0, 0), rec)
	if err != nil {
		return buf[:start], err
	}
	if n := len(buf) - start - 8; n > maxRecordBytes {
		return buf[:start], fmt.Errorf("record of %d bytes exceeds the %d limit", n, maxRecordBytes)
	}
	sealFrame(buf[start:])
	return buf, nil
}

// sealFrame fills in the header of frame, an 8-byte header followed by
// the payload.
func sealFrame(frame []byte) {
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// Append logs one mutation. On return the record has been handed to the
// OS (a process kill cannot lose it); whether it has reached the disk
// depends on the fsync policy. Callers log before applying: a record
// that fails to append must not mutate the registry.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: append to closed WAL")
	}
	var err error
	if w.buf, err = frameRecord(w.buf[:0], &rec); err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	w.recs++
	w.appends++
	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing log: %w", err)
		}
		w.fsyncs++
	case FsyncInterval:
		w.dirty = true
	}
	return nil
}

// NeedsCompaction reports whether the current segment has grown past the
// compaction threshold.
func (w *WAL) NeedsCompaction() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recs >= w.opts.CompactEvery
}

// Compact persists state as the next snapshot generation and rotates to
// a fresh log segment, then deletes the previous generation. The caller
// must guarantee state reflects every record appended so far (the
// registry holds its ingest gate across capture and Compact).
func (w *WAL) Compact(state State) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: compact on closed WAL")
	}
	next := w.seq + 1
	if err := writeSnapshot(w.snapPath(next), state); err != nil {
		return err
	}
	// From here on a failure must unpublish the snapshot: appends keep
	// landing in the old segment, and recovery preferring the new
	// snapshot over them would lose acknowledged mutations.
	unpublish := func() { os.Remove(w.snapPath(next)); os.Remove(w.walPath(next)) }
	nf, err := os.OpenFile(w.walPath(next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		unpublish()
		return fmt.Errorf("store: creating log segment: %w", err)
	}
	if _, err := nf.Write([]byte(walMagic)); err != nil {
		nf.Close()
		unpublish()
		return fmt.Errorf("store: writing log header: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		unpublish()
		return fmt.Errorf("store: syncing log header: %w", err)
	}
	if err := syncDir(w.opts.Dir); err != nil {
		nf.Close()
		unpublish()
		return err
	}
	old := w.seq
	w.f.Close()
	w.f = nf
	w.seq = next
	w.recs = 0
	w.dirty = false
	w.compactions++
	os.Remove(w.snapPath(old))
	os.Remove(w.walPath(old))
	return nil
}

// writeSnapshot writes state atomically: temp file, fsync, rename, dir
// fsync. A crash leaves either the previous generation or a complete new
// snapshot — never a torn one.
func writeSnapshot(path string, state State) error {
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	buf := appendFrame(append([]byte(nil), snapMagic...), payload)
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (State, error) {
	var st State
	data, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return st, errors.New("store: snapshot header mismatch")
	}
	payload, end := parseFrame(data, int64(len(snapMagic)))
	if payload == nil || end != int64(len(data)) {
		return st, errors.New("store: snapshot frame corrupt")
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		return st, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	return st, nil
}

// Sync forces the log to disk regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.dirty = false
	w.fsyncs++
	return w.f.Sync()
}

// syncLoop is the FsyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && !w.closed {
				w.f.Sync()
				w.dirty = false
				w.fsyncs++
			}
			w.mu.Unlock()
		}
	}
}

// Close flushes and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Sync()
	w.fsyncs++
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a consistent snapshot of the WAL accounting.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Dir:              w.opts.Dir,
		Fsync:            w.opts.Fsync.String(),
		Seq:              w.seq,
		SegmentRecords:   w.recs,
		Appends:          w.appends,
		Compactions:      w.compactions,
		Fsyncs:           w.fsyncs,
		RecoveredRecords: w.recRecords,
		RecoveredSkipped: w.recSkipped,
		TruncatedBytes:   w.recTrunc,
	}
}

// syncDir fsyncs a directory so renames/creates inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return nil
}
