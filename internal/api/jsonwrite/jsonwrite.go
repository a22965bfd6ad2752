// Package jsonwrite holds the append-style primitives the service's
// wire types write themselves with, without reflection: each appends
// its value exactly as encoding/json's Encoder writes it with HTML
// escaping on, the default of json.Marshal and json.NewEncoder.
package jsonwrite

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// safe marks the ASCII bytes a string carries through unescaped: the
// printable ones other than the quote, the backslash and the HTML
// characters <, > and &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string: the quote and backslash
// escaped, \b, \f, \n, \r and \t by name, the other control bytes and
// <, > and & as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and
// each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// unsupportedFloat is a NaN or an infinity, which JSON cannot carry.
type unsupportedFloat float64

func (e unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(e), 'g', -1, 64)
}

// AppendFloat appends f in the shortest form that reads back as f:
// 'f' notation, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent written as e-7, not e-07. A NaN or an infinity appends
// nothing and is an error, as it is encoding/json's.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
