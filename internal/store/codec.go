package store

// This file is the log record codec. A record's payload is the JSON
// object json.Marshal(rec) writes — the on-disk format since the first
// log — but a restart decodes every record of the log tail, and a
// reflective decode of each was most of what a restart cost. So the
// codec knows Record's one shape statically: the encoder appends exactly
// json.Marshal's bytes (field order, omitempty, and encoding/json's string
// and float rules from internal/jsonenc), and the decoder parses them
// without reflection.
//
// The decoder is a field table over internal/jsonenc's strict reader: the
// keys json.Marshal writes, in any order and with any whitespace, each at
// most once, with op and platform required (json.Marshal always writes
// both); no nulls, no unknown keys, [2]string flows of exactly two
// strings; strings unquoted and numbers converted as encoding/json does.
// So whatever it accepts, json.Unmarshal accepts too and decodes to the
// same Record; FuzzWALRecord holds it to that, with encoding/json as the
// oracle. What it refuses never came from json.Marshal; recovery reports
// it rather than guessing.

import (
	"fmt"
	"strconv"

	"pilgrim/internal/jsonenc"
	"pilgrim/internal/platform"
)

// appendRecord appends the bytes json.Marshal(rec) writes. A non-finite
// float fails, as it does in encoding/json.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, `{"op":`...)
	dst = jsonenc.AppendString(dst, string(rec.Op))
	dst = append(dst, `,"platform":`...)
	dst = jsonenc.AppendString(dst, rec.Platform)
	if rec.Time != 0 {
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, rec.Time, 10)
	}
	if rec.Source != "" {
		dst = append(dst, `,"source":`...)
		dst = jsonenc.AppendString(dst, rec.Source)
	}
	if rec.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, rec.Epoch, 10)
	}
	if rec.BaseEpoch != 0 {
		dst = append(dst, `,"base_epoch":`...)
		dst = strconv.AppendUint(dst, rec.BaseEpoch, 10)
	}
	if rec.Links != 0 {
		dst = append(dst, `,"links":`...)
		dst = strconv.AppendInt(dst, int64(rec.Links), 10)
	}
	if len(rec.Updates) > 0 {
		dst = append(dst, `,"updates":[`...)
		for i := range rec.Updates {
			u := &rec.Updates[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Link":`...)
			dst = jsonenc.AppendString(dst, u.Link)
			var ok bool
			dst = append(dst, `,"Bandwidth":`...)
			if dst, ok = jsonenc.AppendFloat(dst, u.Bandwidth); !ok {
				return dst, unsupportedFloat(u.Bandwidth)
			}
			dst = append(dst, `,"Latency":`...)
			if dst, ok = jsonenc.AppendFloat(dst, u.Latency); !ok {
				return dst, unsupportedFloat(u.Latency)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(rec.Flows) > 0 {
		dst = append(dst, `,"flows":[`...)
		for i, f := range rec.Flows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = jsonenc.AppendString(dst, f[0])
			dst = append(dst, ',')
			dst = jsonenc.AppendString(dst, f[1])
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func unsupportedFloat(f float64) error {
	return fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}

// recordDecoder decodes record payloads. One decoder serves a whole log,
// so its scratch (the reader's, the update list being read, the record
// itself) is reused and its strings are shared.
type recordDecoder struct {
	r jsonenc.Reader
	// rec is decoded into, then copied out: passed through the field
	// table's calls, the caller's Record would move to the heap.
	rec     Record
	updates []platform.LinkUpdate
	names   map[string]string
}

// opAndPlatform is recordFields' first two members, the ones json.Marshal
// always writes.
const opAndPlatform = 1<<0 | 1<<1

var recordFields = []jsonenc.Field[*recordDecoder, *Record]{
	{Key: "op", Read: func(d *recordDecoder, rec *Record) { rec.Op = Op(d.intern(d.r.StringBytes())) }},
	{Key: "platform", Read: func(d *recordDecoder, rec *Record) { rec.Platform = d.intern(d.r.StringBytes()) }},
	{Key: "time", Read: func(d *recordDecoder, rec *Record) { rec.Time = d.r.Int(64) }},
	{Key: "source", Read: func(d *recordDecoder, rec *Record) { rec.Source = d.intern(d.r.StringBytes()) }},
	{Key: "epoch", Read: func(d *recordDecoder, rec *Record) { rec.Epoch = d.r.Uint() }},
	{Key: "base_epoch", Read: func(d *recordDecoder, rec *Record) { rec.BaseEpoch = d.r.Uint() }},
	{Key: "links", Read: func(d *recordDecoder, rec *Record) { rec.Links = int(d.r.Int(strconv.IntSize)) }},
	{Key: "updates", Read: (*recordDecoder).linkUpdates},
	{Key: "flows", Read: (*recordDecoder).flows},
}

var linkUpdateFields = []jsonenc.Field[*recordDecoder, *platform.LinkUpdate]{
	{Key: "Link", Read: func(d *recordDecoder, u *platform.LinkUpdate) { u.Link = d.intern(d.r.StringBytes()) }},
	{Key: "Bandwidth", Read: func(d *recordDecoder, u *platform.LinkUpdate) { u.Bandwidth = d.r.Float() }},
	{Key: "Latency", Read: func(d *recordDecoder, u *platform.LinkUpdate) { u.Latency = d.r.Float() }},
}

// decode parses one payload into rec.
func (d *recordDecoder) decode(data []byte, rec *Record) error {
	d.r.Reset(data)
	d.rec = Record{}
	if jsonenc.Object(&d.r, d, &d.rec, recordFields)&opAndPlatform != opAndPlatform {
		d.r.Fail("want op and platform")
	}
	if err := d.r.End(); err != nil {
		return fmt.Errorf("payload %w", err)
	}
	*rec = d.rec
	return nil
}

// linkUpdates reads the updates array. An empty array decodes to an
// empty, non-nil slice, as in encoding/json.
func (d *recordDecoder) linkUpdates(rec *Record) {
	d.updates = d.updates[:0]
	for i := 0; d.r.Item(i); i++ {
		d.updates = append(d.updates, platform.LinkUpdate{})
		jsonenc.Object(&d.r, d, &d.updates[i], linkUpdateFields)
	}
	rec.Updates = append(make([]platform.LinkUpdate, 0, len(d.updates)), d.updates...)
}

// flows reads the background flow pairs.
func (d *recordDecoder) flows(rec *Record) {
	rec.Flows = [][2]string{}
	for i := 0; d.r.Item(i); i++ {
		rec.Flows = append(rec.Flows, d.r.Pair(d.intern))
	}
}

// intern returns b as a string. A log repeats a handful of platform,
// source and link names thousands of times, so each distinct one is
// allocated once per decoder.
func (d *recordDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok || d.r.Err() != nil {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}
