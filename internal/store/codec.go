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
// The decoder accepts exactly that layout: json.Marshal's member order and
// keys, no whitespace, no nulls, [2]string flows of exactly two strings —
// with strings unquoted and numbers converted as encoding/json does. So
// whatever it accepts, json.Unmarshal accepts too and decodes to the same
// Record; FuzzWALRecord holds it to that, with encoding/json as the
// oracle. What it refuses never came from json.Marshal; recovery reports
// it rather than guessing.

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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

// recordDecoder parses record payloads. One decoder serves a whole log, so
// its scratch (escaped strings, the update list being read) is reused and
// its strings are shared. Errors are sticky: after the first, every read
// returns a zero value and decode reports that first error.
type recordDecoder struct {
	data    []byte
	off     int
	err     error
	str     []byte
	updates []platform.LinkUpdate
	names   map[string]string
}

// decode parses one payload into rec, which must be the zero Record: the
// members json.Marshal writes, in its order, each optional one present
// only when its key is.
func (d *recordDecoder) decode(data []byte, rec *Record) error {
	d.data, d.off, d.err = data, 0, nil
	d.lit(`{"op":`)
	rec.Op = Op(d.string())
	d.lit(`,"platform":`)
	rec.Platform = d.string()
	if d.skip(`,"time":`) {
		rec.Time = d.int()
	}
	if d.skip(`,"source":`) {
		rec.Source = d.string()
	}
	if d.skip(`,"epoch":`) {
		rec.Epoch = d.uint()
	}
	if d.skip(`,"base_epoch":`) {
		rec.BaseEpoch = d.uint()
	}
	if d.skip(`,"links":`) {
		n := d.int()
		if rec.Links = int(n); int64(rec.Links) != n {
			d.fail("links %d overflows int", n)
		}
	}
	if d.skip(`,"updates":[`) {
		rec.Updates = d.linkUpdates()
	}
	if d.skip(`,"flows":[`) {
		rec.Flows = d.flows()
	}
	d.lit("}")
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing data after the record")
	}
	return d.err
}

// linkUpdates reads the rest of the updates array. An empty array decodes
// to an empty, non-nil slice, as in encoding/json.
func (d *recordDecoder) linkUpdates() []platform.LinkUpdate {
	d.updates = d.updates[:0]
	for d.err == nil && !d.skip("]") {
		if len(d.updates) > 0 {
			d.lit(",")
		}
		var u platform.LinkUpdate
		d.lit(`{"Link":`)
		u.Link = d.string()
		d.lit(`,"Bandwidth":`)
		u.Bandwidth = d.float()
		d.lit(`,"Latency":`)
		u.Latency = d.float()
		d.lit("}")
		d.updates = append(d.updates, u)
	}
	return append(make([]platform.LinkUpdate, 0, len(d.updates)), d.updates...)
}

// flows reads the rest of the background flow pairs, each exactly two
// strings.
func (d *recordDecoder) flows() [][2]string {
	out := [][2]string{}
	for d.err == nil && !d.skip("]") {
		if len(out) > 0 {
			d.lit(",")
		}
		var f [2]string
		d.lit("[")
		f[0] = d.string()
		d.lit(",")
		f[1] = d.string()
		d.lit("]")
		out = append(out, f)
	}
	return out
}

func (d *recordDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("payload byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// skip consumes s if the payload continues with it.
func (d *recordDecoder) skip(s string) bool {
	if d.err != nil || len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// lit consumes s, which the payload must continue with.
func (d *recordDecoder) lit(s string) {
	if !d.skip(s) {
		d.fail("want %s", s)
	}
}

// string reads a string value. A log repeats a handful of platform, source
// and link names thousands of times, so each distinct one is allocated once
// per decoder.
func (d *recordDecoder) string() string {
	b := d.stringBytes()
	if s, ok := d.names[string(b)]; ok || d.err != nil {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// stringBytes reads a JSON string with encoding/json's unquoting: the
// standard escapes, \uXXXX with surrogate pairs combined (a lone
// surrogate becomes U+FFFD), and each byte of invalid UTF-8 replaced by
// U+FFFD. An unescaped string comes back as a slice of the payload, an
// escaped one in d.str; either is valid until the next string is read.
func (d *recordDecoder) stringBytes() []byte {
	if d.lit(`"`); d.err != nil {
		return nil
	}
	data, start := d.data, d.off
	i := start
	for i < len(data) {
		c := data[i]
		if plainASCII[c] {
			i++
			continue
		}
		if c == '"' {
			d.off = i + 1
			return data[start:i]
		}
		if c < utf8.RuneSelf {
			break // an escape or a control byte
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(d.str[:0], data[start:i]...)
	for d.off = i; i < len(data); d.off = i {
		switch c := data[i]; {
		case c == '"':
			d.off, d.str = i+1, b
			return b
		case c == '\\':
			if i+1 == len(data) {
				i++
				continue
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					d.fail("malformed \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(data[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.fail("invalid escape \\%c", e)
				return nil
			}
			i += 2
		case c < 0x20:
			d.fail("control byte 0x%02x in string", c)
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.fail("unterminated string")
	return nil
}

// plainASCII marks the bytes a string holds as themselves: printable
// ASCII other than '"' and '\\'.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 decodes the \uXXXX escape at the front of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a JSON number literal (RFC 8259 grammar: no leading '+',
// no leading zeros, digits on both sides of a '.'), which strconv alone
// would not enforce.
func (d *recordDecoder) number() []byte {
	if d.err != nil {
		return nil
	}
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		d.fail("want a number")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i = skipDigits(data, i+1); data[i-1] == '.' {
			d.fail("malformed number")
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.fail("malformed number")
			return nil
		}
	}
	d.off = i
	return data[start:i]
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// int, uint and float convert a number literal the way encoding/json
// does for an int, uint64 or float64 field: strconv on the literal, so an
// integer field refuses a fraction or exponent and every field refuses an
// out-of-range value.
func (d *recordDecoder) int() int64 {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		d.fail("%v", errors.Unwrap(err))
	}
	return n
}

func (d *recordDecoder) uint() uint64 {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.fail("%v", errors.Unwrap(err))
	}
	return n
}

func (d *recordDecoder) float() float64 {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	if f, ok := exactInt(lit); ok {
		return f
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail("%v", errors.Unwrap(err))
	}
	return f
}

// exactInt converts an integer literal of at most 15 digits, the common
// case of a logged bandwidth. Such a value is exactly representable, so
// the conversion is the correctly rounded one ParseFloat returns, -0
// included; anything else is left to ParseFloat.
func exactInt(lit []byte) (float64, bool) {
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	if len(digits) > 15 {
		return 0, false
	}
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	f := float64(n)
	if len(digits) < len(lit) {
		f = -f
	}
	return f, true
}
