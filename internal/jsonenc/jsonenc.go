// Package jsonenc holds the byte-level rules encoding/json applies to a
// string and to a float64, both ways. The writers are append functions:
// the hand-written encoders that must write exactly what encoding/json
// writes — the serving path's response writer (internal/pilgrim) and the
// WAL record codec (internal/store) — call these instead of each keeping
// a copy. The one reader, Reader, is a strict JSON scanner that decodes
// as encoding/json does: the WAL record decoder and the evaluate body
// decoder are field tables over it.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json writes
// it with HTML escaping on (json.Marshal and the Encoder default): \" and
// \\, the short escapes \b \f \n \r \t, \u00XX for the other control bytes
// and for <, > and &, \ufffd for each byte of invalid UTF-8, and U+2028 /
// U+2029 as \u2028 / \u2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes below 0x20 and the HTML trio <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		// U+2028/U+2029 break JSONP consumers; encoding/json escapes
		// them unconditionally.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f in ES6 number-to-string form, encoding/json's
// float64 encoding: 'f' format inside [1e-6, 1e21), 'e' outside, with a
// two-digit negative exponent collapsed (e-09 → e-9). NaN and ±Inf have no
// JSON form — encoding/json refuses them — so for those ok is false and
// dst comes back unchanged.
func AppendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
