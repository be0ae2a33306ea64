package jsonenc

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader reads JSON from a byte slice for the hand-written decoders that
// must decode as encoding/json does without its reflection: the WAL
// record codec (internal/store) and the evaluate body decoder
// (internal/pilgrim). Every caller gets the same grammar, a strict subset
// of JSON:
//
//   - whitespace between tokens;
//   - objects, through a field table (Object): each key spelled exactly as
//     the table spells it, without escapes, at most once;
//   - arrays (Item);
//   - strings, unquoted as encoding/json unquotes them (StringBytes);
//   - numbers in the RFC 8259 grammar, converted as encoding/json converts
//     them into an int64 of a given bit size, a uint64 or a float64;
//   - the end of the input (End).
//
// It never reads null; an unknown key and trailing bytes are errors. So
// whatever it accepts, json.Unmarshal accepts into the same value.
// Errors are sticky: the first one is kept with its byte offset, and every
// later read returns a zero value.
type Reader struct {
	data []byte
	off  int
	err  error
	str  []byte // the last escaped string, unquoted
}

// Reset starts reading data, keeping the string scratch.
func (r *Reader) Reset(data []byte) {
	r.data, r.off, r.err = data, 0, nil
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records an error at the current offset unless one is recorded
// already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// End reads the whitespace after the value and the end of the input, and
// returns the first error.
func (r *Reader) End() error {
	if r.peek(); r.err == nil && r.off != len(r.data) {
		r.Fail("trailing data after the value")
	}
	return r.err
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// input or after an error.
func (r *Reader) peek() byte {
	for r.err == nil && r.off < len(r.data) {
		if c := r.data[r.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
		r.off++
	}
	return 0
}

// next consumes c if it comes next.
func (r *Reader) next(c byte) bool {
	if r.peek() == c {
		r.off++
		return true
	}
	return false
}

// want consumes c, which must come next.
func (r *Reader) want(c byte) bool {
	if r.next(c) {
		return true
	}
	r.Fail("want %q", c)
	return false
}

// Field is one entry of an object's field table: the key as its json tag
// spells it, and the function that reads the member's value into v, the
// object being decoded, with d, the caller's decoder state.
type Field[D, V any] struct {
	Key  string
	Read func(d D, v V)
}

// Object reads an object whose keys are all in fields (at most 64), each
// at most once, and returns the set of keys present: bit i for fields[i].
// A key the table does not spell exactly — another case, an escape — is
// an error, as is a repeated one.
func Object[D, V any](r *Reader, d D, v V, fields []Field[D, V]) (seen uint64) {
	if !r.next('{') {
		r.Fail("want '{'")
		return 0
	}
	if r.next('}') {
		return 0
	}
	for i := 0; ; i++ {
		// Writers emit keys in table order, so fields[i] comes first.
		if i < len(fields) && r.err == nil && isKey(r.data[r.off:], fields[i].Key) {
			r.off += len(fields[i].Key) + 3
		} else if i = key(r, fields); i < 0 {
			return seen
		}
		bit := uint64(1) << (i & 63)
		if seen&bit != 0 {
			r.Fail("repeated key %q", fields[i].Key)
			return seen
		}
		seen |= bit
		fields[i].Read(d, v)
		if r.next(',') {
			continue
		}
		if !r.next('}') {
			r.Fail("want ',' or '}'")
		}
		return seen
	}
}

// isKey reports whether b starts with k as a key: "k":
func isKey(b []byte, k string) bool {
	return len(b) > len(k)+2 && b[0] == '"' && string(b[1:len(k)+1]) == k && b[len(k)+1] == '"' && b[len(k)+2] == ':'
}

// key reads an object key and the ':' after it and returns the key's
// index in fields, or -1 on an error. Keys are matched raw, so one with an
// escape matches no field.
func key[D, V any](r *Reader, fields []Field[D, V]) int {
	if !r.want('"') {
		return -1
	}
	rest := r.data[r.off:]
	n := bytes.IndexByte(rest, '"')
	if n < 0 {
		r.Fail("unterminated key")
		return -1
	}
	for i := range fields {
		if fields[i].Key == string(rest[:n]) {
			r.off += n + 1
			if !r.want(':') {
				return -1
			}
			return i
		}
	}
	r.Fail("unknown key %q", rest[:n])
	return -1
}

// Item reports whether the array being read has an element i, elements
// 0 … i-1 having been read: it reads the '[' before element 0 and the ','
// before each later one, or the closing ']' instead, reporting false.
func (r *Reader) Item(i int) bool {
	switch {
	case i == 0 && !r.next('['):
		r.Fail("want '['")
		return false
	case i > 0 && r.next(','):
		return true
	case r.next(']'):
		return false
	case i > 0:
		r.Fail("want ',' or ']'")
		return false
	}
	return r.err == nil
}

// Pair reads an array of exactly two strings, handing each to keep as it
// is read.
func (r *Reader) Pair(keep func([]byte) string) (p [2]string) {
	if r.want('[') {
		p[0] = keep(r.StringBytes())
	}
	if r.want(',') {
		p[1] = keep(r.StringBytes())
	}
	r.want(']')
	return p
}

// StringBytes reads a string with encoding/json's unquoting: the standard
// escapes, \uXXXX with surrogate pairs combined (a lone surrogate becomes
// U+FFFD), and each byte of invalid UTF-8 replaced by U+FFFD. An
// unescaped string comes back as a slice of the input, an escaped one in
// the reader's scratch; either is valid until the next read.
func (r *Reader) StringBytes() []byte {
	if !r.next('"') {
		r.Fail("want a string")
		return nil
	}
	data, start := r.data, r.off
	i := start
	for i < len(data) {
		c := data[i]
		if plainASCII[c] {
			i++
			continue
		}
		if c == '"' {
			r.off = i + 1
			return data[start:i]
		}
		if c < utf8.RuneSelf {
			break // an escape or a control byte
		}
		u, size := utf8.DecodeRune(data[i:])
		if u == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(r.str[:0], data[start:i]...)
	for r.off = i; i < len(data); r.off = i {
		switch c := data[i]; {
		case c == '"':
			r.off, r.str = i+1, b
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
				u := hex4(data[i:])
				if u < 0 {
					r.Fail("malformed \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(u) {
					if dec := utf16.DecodeRune(u, hex4(data[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					u = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, u)
				continue
			default:
				r.Fail("invalid escape \\%c", e)
				return nil
			}
			i += 2
		case c < 0x20:
			r.Fail("control byte 0x%02x in string", c)
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			u, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, u)
			i += size
		}
	}
	r.Fail("unterminated string")
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

// number reads a number literal in the RFC 8259 grammar (no leading '+',
// no leading zeros, digits on both sides of a '.'), which strconv alone
// would not enforce.
func (r *Reader) number() []byte {
	if r.peek(); r.err != nil {
		return nil
	}
	data, start := r.data, r.off
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
		r.Fail("want a number")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i = skipDigits(data, i+1); data[i-1] == '.' {
			r.Fail("malformed number")
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
			r.Fail("malformed number")
			return nil
		}
	}
	r.off = i
	return data[start:i]
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// Int, Uint and Float read a number and convert it the way encoding/json
// does for an integer field of the given bit size, a uint64 or a float64
// field: strconv on the literal, so an integer field refuses a fraction or
// exponent and every field refuses an out-of-range value.
func (r *Reader) Int(bitSize int) int64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		r.Fail("%v", errors.Unwrap(err))
	}
	return n
}

func (r *Reader) Uint() uint64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		r.Fail("%v", errors.Unwrap(err))
	}
	return n
}

func (r *Reader) Float() float64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	if f, ok := exactInt(lit); ok {
		return f
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.Fail("%v", errors.Unwrap(err))
	}
	return f
}

// exactInt converts an integer literal of at most 15 digits, the common
// case of a logged bandwidth or a transfer size. Such a value is exactly
// representable, so the conversion is the correctly rounded one
// ParseFloat returns, -0 included; anything else is left to ParseFloat.
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
