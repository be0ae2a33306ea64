package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pilgrim/internal/platform"
)

var negZero = math.Copysign(0, -1)

// segmentRecords is what testdata/wal-encoding-json.log holds: the records
// the encoding/json-based Append wrote into that segment, in order. They
// cover all four ops plus an unknown op and an unregistered platform, and
// the string and float corners of the format.
func segmentRecords() []Record {
	return []Record{
		{Op: OpAddPlatform, Platform: "g5k_test", BaseEpoch: 7, Links: 1234},
		{Op: OpAddPlatform, Platform: "odd <name> & \"quoted\" \\ \x01\t\n\xe2\x80\xa8", BaseEpoch: math.MaxUint64, Links: -3},
		{Op: OpObserve, Platform: "g5k_test", Time: 1336111200, Source: "iperf", Epoch: 8, Updates: []platform.LinkUpdate{
			{Link: "sagittaire-1.lyon.grid5000.fr_nic", Bandwidth: 1.25e8, Latency: -1},
			{Link: "e-range small", Bandwidth: 1e-7, Latency: negZero},
			{Link: "e-range large", Bandwidth: 1e21, Latency: 5e-324},
			{Link: "f-range", Bandwidth: 123456789.123, Latency: 0.000123},
		}},
		{Op: OpObserve, Platform: "g5k_test", Time: -5, Epoch: 9, Updates: []platform.LinkUpdate{}},
		{Op: OpObserve, Platform: "g5k_test", Time: math.MinInt64, Source: "bad\xffbyte \xc3\xa9 \xe2\x80\xa9 \x7f", Epoch: math.MaxUint64, Updates: []platform.LinkUpdate{
			{Link: "x\xfey", Bandwidth: math.MaxFloat64, Latency: math.SmallestNonzeroFloat64},
		}},
		{Op: OpBgEstimate, Platform: "g5k_test", Source: "drill <x>&", Flows: [][2]string{{"a", "b"}, {"c\"q", "d\\\b\f\r"}}},
		{Op: OpBgEstimate, Platform: "g5k_test", Flows: [][2]string{}},
		{Op: OpReject, Platform: "g5k_test"},
		{Op: "future_op", Platform: "g5k_test"},
		{Op: OpReject, Platform: "ghost"},
	}
}

// wantSegmentState is what recovering that segment yields, at the commit
// that wrote it and since: invalid UTF-8 comes back as U+FFFD and an empty
// (omitted) slice as nil.
func wantSegmentState() *RecoveredState {
	recs := segmentRecords()
	recs[3].Updates = nil
	recs[4].Source = "bad\xef\xbf\xbdbyte \xc3\xa9 \xe2\x80\xa9 \x7f"
	recs[4].Updates[0].Link = "x\xef\xbf\xbdy"
	recs[6].Flows = nil
	return &RecoveredState{
		MaxEpoch: math.MaxUint64,
		Platforms: map[string]*PlatformRecovery{
			"g5k_test": {
				State: PlatformState{Name: "g5k_test", BaseEpoch: 7, Links: 1234},
				Tail:  []Record{recs[2], recs[3], recs[4], recs[5], recs[6], recs[7]},
			},
			recs[1].Platform: {State: PlatformState{Name: recs[1].Platform, BaseEpoch: math.MaxUint64, Links: -3}},
		},
		Skipped: 2,
	}
}

// sameRecord is reflect.DeepEqual with floats compared by bit pattern
// (DeepEqual takes -0 == 0).
func sameRecord(a, b Record) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a.Updates {
		ua, ub := a.Updates[i], b.Updates[i]
		if math.Float64bits(ua.Bandwidth) != math.Float64bits(ub.Bandwidth) ||
			math.Float64bits(ua.Latency) != math.Float64bits(ub.Latency) {
			return false
		}
	}
	return true
}

// TestWALRecoversEncodingJSONSegment pins the on-disk format to the one
// encoding/json wrote: the codec frames segmentRecords into exactly the
// committed segment's bytes, and recovering that segment yields the state
// it always did.
func TestWALRecoversEncodingJSONSegment(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "wal-encoding-json.log"))
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(walMagic)
	for _, r := range segmentRecords() {
		if buf, err = frameRecord(buf, &r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, img) {
		t.Fatalf("codec writes a different segment:\n got %q\nwant %q", buf, img)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec := mustOpen(t, Options{Dir: dir})
	defer w.Close()
	want := wantSegmentState()
	if rec.MaxEpoch != want.MaxEpoch || rec.Skipped != want.Skipped || rec.TruncatedBytes != 0 || len(rec.Platforms) != len(want.Platforms) {
		t.Fatalf("recovered MaxEpoch=%d Skipped=%d TruncatedBytes=%d platforms=%d, want %d %d 0 %d",
			rec.MaxEpoch, rec.Skipped, rec.TruncatedBytes, len(rec.Platforms), want.MaxEpoch, want.Skipped, len(want.Platforms))
	}
	for name, wp := range want.Platforms {
		gp := rec.Platforms[name]
		if gp == nil || !reflect.DeepEqual(gp.State, wp.State) || len(gp.Tail) != len(wp.Tail) {
			t.Fatalf("platform %q recovered as %+v, want %+v", name, gp, wp)
		}
		for i := range wp.Tail {
			if !sameRecord(gp.Tail[i], wp.Tail[i]) {
				t.Fatalf("platform %q tail record %d:\n got %#v\nwant %#v", name, i, gp.Tail[i], wp.Tail[i])
			}
		}
	}
}

// TestWALRefusesUndecodableRecord puts a checksummed frame that is not a
// record between two good ones. That is no torn write, and truncating at
// it would silently drop the acknowledged record after it: Open must fail
// naming the segment and the offset, and leave the file as it was. None
// of the payloads is one json.Marshal writes for a Record.
func TestWALRefusesUndecodableRecord(t *testing.T) {
	for _, payload := range []string{
		`{"op":"observe","platform":"g5k","updates":[{"Link":"l","Bandwidth":"fast"}]}`,
		`{}`,
		`{"op":"observe","time":5}`,
		`{"op":"observe","platform":"g5k","source":null}`,
		`{"op":"observe","platform":"g5k","comment":"x"}`,
		`{"op":"observe","platform":"g5k","epoch":3,"epoch":4}`,
	} {
		t.Run(payload, func(t *testing.T) {
			dir := t.TempDir()
			w, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
			if err := w.Append(Record{Op: OpAddPlatform, Platform: "g5k", BaseEpoch: 1, Links: 4}); err != nil {
				t.Fatal(err)
			}
			w.Close()
			path := w.walPath(1)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			badAt := len(img)
			img = appendFrame(img, []byte(payload))
			img, err = frameRecord(img, &Record{Op: OpReject, Platform: "g5k"})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}

			w2, _, err := Open(Options{Dir: dir})
			if err == nil {
				w2.Close()
				t.Fatal("Open accepted a log with an undecodable record before an acknowledged one")
			}
			for _, want := range []string{path, fmt.Sprintf("byte offset %d", badAt)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, img) {
				t.Fatalf("Open changed the log: %d bytes, was %d", len(after), len(img))
			}
		})
	}
}

// checkDecodeAgainstJSON is FuzzWALRecord's first property: whatever the
// decoder accepts, json.Unmarshal accepts into the same Record.
func checkDecodeAgainstJSON(t *testing.T, payload []byte) {
	t.Helper()
	var dec recordDecoder
	var got Record
	if dec.decode(payload, &got) != nil {
		return
	}
	var want Record
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", payload, err)
	}
	if !sameRecord(got, want) {
		t.Fatalf("decoding %q:\n got %#v\nwant %#v", payload, got, want)
	}
}

// checkEncodeAgainstJSON is the second: the encoder writes json.Marshal's
// bytes (or fails where it fails), and they decode to what encoding/json
// decodes them to.
func checkEncodeAgainstJSON(t *testing.T, rec Record) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, gerr := appendRecord(nil, &rec)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding %#v: codec error %v, encoding/json error %v", rec, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding %#v:\n got %s\nwant %s", rec, got, want)
	}
	var dec recordDecoder
	var back, jsonBack Record
	if err := dec.decode(got, &back); err != nil {
		t.Fatalf("decoder refuses the encoder's %s: %v", got, err)
	}
	if err := json.Unmarshal(want, &jsonBack); err != nil {
		t.Fatal(err)
	}
	if !sameRecord(back, jsonBack) {
		t.Fatalf("round trip of %s:\n got %#v\nwant %#v", got, back, jsonBack)
	}
}

// fuzzedRecord builds a Record from fuzzed fields; shape picks nil, empty
// or populated updates (bits 0-1) and flows (bits 2-3).
func fuzzedRecord(op, plat, source, link, flowA, flowB string, tm int64, epoch, baseEpoch uint64, links int64, bw, lat float64, shape uint8) Record {
	rec := Record{Op: Op(op), Platform: plat, Time: tm, Source: source, Epoch: epoch, BaseEpoch: baseEpoch, Links: int(links)}
	switch shape & 3 {
	case 1:
		rec.Updates = []platform.LinkUpdate{}
	case 2:
		rec.Updates = []platform.LinkUpdate{{Link: link, Bandwidth: bw, Latency: lat}}
	case 3:
		rec.Updates = []platform.LinkUpdate{{Link: link, Bandwidth: bw, Latency: lat}, {Link: flowA, Bandwidth: lat, Latency: bw}}
	}
	switch shape >> 2 & 3 {
	case 1:
		rec.Flows = [][2]string{}
	case 2:
		rec.Flows = [][2]string{{flowA, flowB}}
	case 3:
		rec.Flows = [][2]string{{flowA, flowB}, {flowB, link}}
	}
	return rec
}

// FuzzWALRecord holds the log record codec to encoding/json, its oracle:
// arbitrary payload bytes the decoder accepts must unmarshal to the same
// Record, and records built from fuzzed fields must encode to
// json.Marshal's bytes and decode back.
func FuzzWALRecord(f *testing.F) {
	for _, r := range segmentRecords() {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, "observe", "g5k_test", "iperf", "l", "a", "b", int64(1), uint64(2), uint64(3), int64(4), 1e8, -1.0, uint8(0))
	}
	for _, payload := range []string{
		`{"op":"reject","platform":"\u00e9\ud83d\ude00 \ud800x \ud800\u0041 \udc00 \u2028 \/ \b\f\n\r\t\"\\"}`,
		`{"op":"observe","platform":"raw` + "\x01" + `control"}`,
		`{"op":"bad` + "\xff\xfe" + `utf8","platform":"` + "\xed\xa0\x80" + `"}`,
		`{"op":"it\'s","platform":"p"}`,
		`{"op":"\u12","platform":"p"}`,
		`{"op":null,"platform":"p"}`,
		`{"op":"a","platform":"p","time":1e2}`,
		`{"op":"a","platform":"p","time":-0,"links":-0}`,
		`{"op":"a","platform":"p","time":+1}`,
		`{"op":"a","platform":"p","time":01}`,
		`{"op":"a","platform":"p","epoch":-0}`,
		`{"op":"a","platform":"p","epoch":18446744073709551616}`,
		`{"op":"a","platform":"p","updates":[{"Link":"l","Bandwidth":1.5e400,"Latency":-1}]}`,
		`{"op":"a","platform":"p","updates":[{"Link":"l","Bandwidth":1e-400,"Latency":-0.0e-0}]}`,
		`{"op":"a","platform":"p","updates":[{"Link":"l","Bandwidth":1E+2,"Latency":.5}]}`,
		`{"op":"a","platform":"p","updates":[{"Link":"l","Bandwidth":1.,"Latency":-}]}`,
		`{"op":"a","platform":"p","updates":[]}`,
		`{"op":"a","platform":"p","updates":[{}]}`,
		`{"op":"a","platform":"p","flows":[]}`,
		`{"op":"a","platform":"p","flows":[["a"]]}`,
		`{"op":"a","platform":"p","flows":[["a","b","c"]]}`,
		`{"op":"a","platform":"p","flows":[["a","b"],]}`,
		`{"op":"a","platform":"p","op":"b"}`,
		`{"platform":"p","op":"a"}`,
		`{ "op":"a","platform":"p"}`,
		`{"op":"a","platform":"p"} `,
		`{"op":"a","platform":"p"}}`,
		"\xef\xbb\xbf{}",
		`{}`,
	} {
		f.Add([]byte(payload), "", "", "", "", "", "", int64(0), uint64(0), uint64(0), int64(0), 0.0, 0.0, uint8(0))
	}
	// Whitespace and member order are not json.Marshal's, and
	// json.Unmarshal decodes them to the same Record.
	for _, r := range segmentRecords() {
		payload, err := json.MarshalIndent(r, "", "\t")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, "", "", "", "", "", "", int64(0), uint64(0), uint64(0), int64(0), 0.0, 0.0, uint8(0))
	}
	f.Add([]byte(`{"flows":[["a","b"]],"updates":[{"Latency":-1,"Bandwidth":1e8,"Link":"l"}],"links":2,"base_epoch":3,"epoch":4,"source":"s","time":5,"platform":"p","op":"observe"}`),
		"", "", "", "", "", "", int64(0), uint64(0), uint64(0), int64(0), 0.0, 0.0, uint8(0))
	f.Add([]byte(nil), "observe", "g5k<>&", "src\"\\\n\x01\b\f", "l\xffx", "a\xe2\x80\xa8b", "\x7f\xe2\x80\xa9", int64(-1), uint64(math.MaxUint64), uint64(1), int64(-7), 1e-7, negZero, uint8(2|2<<2))
	f.Add([]byte(nil), "add_platform", "p", "", "l", "a", "b", int64(math.MinInt64), uint64(0), uint64(math.MaxUint64), int64(math.MaxInt64), 1e21, 9.999999999999999e20, uint8(3|3<<2))
	f.Add([]byte(nil), "bg_estimate", "p", "s", "l", "a", "b", int64(0), uint64(0), uint64(0), int64(0), 1e-6, 9.99e-7, uint8(1|1<<2))
	f.Add([]byte(nil), "observe", "p", "s", "l", "a", "b", int64(0), uint64(0), uint64(0), int64(0), math.NaN(), math.Inf(-1), uint8(2))
	f.Add([]byte(nil), "observe", "p", "s", "l", "a", "b", int64(0), uint64(0), uint64(0), int64(0), math.SmallestNonzeroFloat64, math.MaxFloat64, uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, op, plat, source, link, flowA, flowB string, tm int64, epoch, baseEpoch uint64, links int64, bw, lat float64, shape uint8) {
		checkDecodeAgainstJSON(t, payload)
		checkEncodeAgainstJSON(t, fuzzedRecord(op, plat, source, link, flowA, flowB, tm, epoch, baseEpoch, links, bw, lat, shape))
	})
}
