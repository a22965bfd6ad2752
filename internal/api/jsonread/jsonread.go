// Package jsonread is a small reflection-free JSON reader: a cursor
// over one document that the service's wire types decode themselves
// with, checking and decoding in a single pass.
//
// It accepts exactly the documents encoding/json accepts and decodes
// them as encoding/json decodes into the same types without methods:
// the same grammar and nesting bound, unknown fields skipped but still
// checked, the last of duplicate keys winning, keys matched exactly or
// else by bytes.EqualFold, null ignored by structs and scalars and
// clearing pointers and slices, integers refusing fractions, exponents
// and overflow, floats refusing ±Inf, and strings unescaped with
// invalid UTF-8 and lone surrogates turned into U+FFFD. Only the
// wording of its errors differs.
package jsonread

import (
	"bytes"
	"encoding"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting bound on arrays and objects.
const maxDepth = 10000

// Reader reads one JSON document.
type Reader struct {
	data  []byte
	off   int
	depth int
	buf   []byte // unescaped keys and text values
	nest  []byte // closing bytes of the containers Skip is inside
}

// NewReader returns a Reader at the start of data. The Reader does not
// copy data: the strings it returns are copies, and only Raw's bytes
// alias data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// readError is a malformed document or a value of the wrong type.
type readError struct {
	offset int // in the document
	msg    string
}

func (e *readError) Error() string { return fmt.Sprintf("json: %s at offset %d", e.msg, e.offset) }

func (r *Reader) errorf(format string, args ...any) error {
	return &readError{offset: r.off, msg: fmt.Sprintf(format, args...)}
}

// unexpected reports the byte at the cursor, or the end of input.
func (r *Reader) unexpected(context string) error {
	if r.off >= len(r.data) {
		return r.errorf("unexpected end of input %s", context)
	}
	return r.errorf("invalid character %q %s", r.data[r.off], context)
}

// mismatch reports a well-formed value of the wrong kind for want.
func (r *Reader) mismatch(want string) error {
	kind := "number"
	switch r.data[r.off] {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case 'n':
		kind = "null"
	}
	return r.errorf("cannot decode %s into %s", kind, want)
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the document (where a 0 byte of the document is only ever invalid).
func (r *Reader) peek() byte {
	if r.off < len(r.data) && r.data[r.off] > ' ' {
		return r.data[r.off]
	}
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// End checks that only whitespace follows the value read.
func (r *Reader) End() error {
	if r.peek(); r.off < len(r.data) {
		return r.unexpected("after top-level value")
	}
	return nil
}

// literal consumes the literal word at the cursor.
func (r *Reader) literal(word string) error {
	if len(r.data)-r.off >= len(word) && string(r.data[r.off:r.off+len(word)]) == word {
		r.off += len(word)
		return nil
	}
	i := 1 // the caller saw word[0]
	for i < len(word) && r.off+i < len(r.data) && r.data[r.off+i] == word[i] {
		i++
	}
	r.off += i
	return r.unexpected("in literal " + word)
}

// null consumes a null and reports true when the next value is one; it
// consumes nothing otherwise.
func (r *Reader) null() (bool, error) {
	if r.peek() != 'n' {
		return false, nil
	}
	return true, r.literal("null")
}

// value checks that a value starts at the cursor, so a type mismatch is
// never reported where the grammar is at fault.
func (r *Reader) value() (byte, error) {
	c := r.peek()
	switch {
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return c, nil
	}
	return c, r.unexpected("looking for beginning of value")
}

// container consumes a whole object or array, calling each for every
// member: after the key and colon for an object (key is nil for an
// array). each must consume exactly one value, and check that one
// starts there.
func (r *Reader) container(open, close byte, each func(key []byte) error) error {
	empty, err := r.enter(close)
	for more := !empty; more && err == nil; more, err = r.more(close) {
		var key []byte
		if open == '{' {
			if key, err = r.key(); err != nil {
				return err
			}
		}
		if err = each(key); err != nil {
			return err
		}
	}
	return err
}

// enter consumes the byte that opens a container, counting it against
// the nesting bound, and reports whether the container is empty, in
// which case it consumes the closing byte too.
func (r *Reader) enter(close byte) (empty bool, err error) {
	if r.depth++; r.depth > maxDepth {
		return false, r.errorf("exceeded max depth")
	}
	r.off++
	if r.peek() == close {
		r.off++
		r.depth--
		return true, nil
	}
	return false, nil
}

// key consumes an object key and its colon, and returns the key
// unescaped.
func (r *Reader) key() ([]byte, error) {
	if r.peek() != '"' {
		return nil, r.unexpected("looking for beginning of object key string")
	}
	key, err := r.text()
	if err != nil {
		return nil, err
	}
	if r.peek() != ':' {
		return nil, r.unexpected("after object key")
	}
	r.off++
	return key, nil
}

// more consumes what follows a member of the container that close
// ends: a comma, reporting true, or close itself, reporting false.
func (r *Reader) more(close byte) (bool, error) {
	switch r.peek() {
	case ',':
		r.off++
		return true, nil
	case close:
		r.off++
		r.depth--
		return false, nil
	}
	if close == '}' {
		return false, r.unexpected("after object key:value pair")
	}
	return false, r.unexpected("after array element")
}

// Object decodes an object, calling field with each key, unescaped and
// valid until field reads the key's value, which field must consume. A
// null is consumed and ignored, as encoding/json ignores it for a
// struct; any other kind of value is an error.
func (r *Reader) Object(field func(key []byte) error) error {
	switch c, err := r.value(); {
	case err != nil:
		return err
	case c == 'n':
		return r.literal("null")
	case c != '{':
		return r.mismatch("object")
	}
	return r.container('{', '}', field)
}

// Key returns the field name that key matches, as encoding/json matches
// a key to a struct field: exactly, or failing that by bytes.EqualFold.
// names are the fields' names, each lower-case ASCII as every name on
// this wire is, so a key without upper-case or non-ASCII bytes can only
// match itself and comes back as it is, for the caller's switch on
// string(key) to match exactly; any other key comes back as the name it
// folds to, or as it is when it folds to none.
func Key(key []byte, names []string) []byte {
	for _, c := range key {
		if 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf {
			for _, n := range names {
				if bytes.EqualFold(key, []byte(n)) {
					return []byte(n)
				}
			}
			return key
		}
	}
	return key
}

// Slice decodes an array into *s as encoding/json decodes into a
// slice: element i decodes through read in place into (*s)[i] when it
// exists, the slice is cut to the array's length, [] leaves it empty
// but non-nil and null sets it to nil. read must consume one value.
func Slice[T any](r *Reader, s *[]T, read func(*Reader, *T) error) error {
	switch c, err := r.value(); {
	case err != nil:
		return err
	case c == 'n':
		*s = nil
		return r.literal("null")
	case c != '[':
		return r.mismatch("array")
	}
	v, i := *s, 0
	err := r.container('[', ']', func([]byte) error {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1] // encoding/json reuses what lies past len
			} else {
				var zero T
				v = append(v, zero)
			}
		}
		i++
		return read(r, &v[i-1])
	})
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return err
}

// Ptr decodes into *p as encoding/json decodes into a pointer: null
// sets it to nil, and any other value decodes through read into the
// pointee, allocated first when *p is nil.
func Ptr[T any](r *Reader, p **T, read func(*Reader, *T) error) error {
	if null, err := r.null(); null || err != nil {
		if null {
			*p = nil
		}
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	return read(r, *p)
}

// Skip consumes and checks one value of any kind. It keeps the closing
// bytes of the containers it is inside in r.nest rather than on the
// call stack, so a deeply nested value costs a byte a level.
func (r *Reader) Skip() error {
	base := len(r.nest)
	for {
		c, err := r.value()
		if err != nil {
			return err
		}
		switch c {
		case '{', '[':
			close := c + 2 // '{'+2 == '}', '['+2 == ']'
			empty, err := r.enter(close)
			if err != nil {
				return err
			}
			if !empty {
				r.nest = append(r.nest, close)
				if c == '{' {
					_, err = r.key()
				}
				if err != nil {
					return err
				}
				continue // to the first member's value
			}
		case '"':
			_, _, err = r.scanString()
		case 't':
			err = r.literal("true")
		case 'f':
			err = r.literal("false")
		case 'n':
			err = r.literal("null")
		default:
			_, err = r.number()
		}
		if err != nil {
			return err
		}
		// A value ended: leave each container it ended, up to the next
		// member's value or the end of the value Skip began with.
		for {
			if len(r.nest) == base {
				return nil
			}
			close := r.nest[len(r.nest)-1]
			more, err := r.more(close)
			if err != nil {
				return err
			}
			if more {
				if close == '}' {
					_, err = r.key()
				}
				if err != nil {
					return err
				}
				break
			}
			r.nest = r.nest[:len(r.nest)-1]
		}
	}
}

// number consumes a number and returns its bytes.
func (r *Reader) number() ([]byte, error) {
	d, start := r.data, r.off
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		r.off = i
		return nil, r.unexpected("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.off = i
			return nil, r.unexpected("after decimal point in numeric literal")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.off = i
			return nil, r.unexpected("in exponent of numeric literal")
		}
	}
	r.off = i
	return d[start:i], nil
}

// scalar checks that the next value is null or starts as ok accepts,
// and reports whether it is null, which scalars ignore; want names the
// Go type in a mismatch.
func (r *Reader) scalar(want string, ok func(c byte) bool) (null bool, err error) {
	c, err := r.value()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		return true, r.literal("null")
	}
	if !ok(c) {
		return false, r.mismatch(want)
	}
	return false, nil
}

func isNumber(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// Int decodes a number into *p; null leaves *p unchanged. A fraction,
// an exponent or a value out of int's range is an error.
func (r *Reader) Int(p *int) error {
	var n int64
	if err := r.Int64(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return r.errorf("cannot decode number %d into int", n)
	}
	*p = int(n)
	return nil
}

// Int64 is Int for an int64.
func (r *Reader) Int64(p *int64) error {
	if null, err := r.scalar("int", isNumber); null || err != nil {
		return err
	}
	at := r.off
	b, err := r.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return &readError{offset: at, msg: fmt.Sprintf("cannot decode number %s into int", b)}
	}
	*p = n
	return nil
}

// Float64 decodes a number into *p; null leaves *p unchanged. A value
// beyond float64's range is an error.
func (r *Reader) Float64(p *float64) error {
	if null, err := r.scalar("float64", isNumber); null || err != nil {
		return err
	}
	at := r.off
	b, err := r.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return &readError{offset: at, msg: fmt.Sprintf("cannot decode number %s into float64", b)}
	}
	*p = f
	return nil
}

// Bool decodes true or false into *p; null leaves *p unchanged.
func (r *Reader) Bool(p *bool) error {
	if null, err := r.scalar("bool", func(c byte) bool { return c == 't' || c == 'f' }); null || err != nil {
		return err
	}
	if r.data[r.off] == 't' {
		*p = true
		return r.literal("true")
	}
	*p = false
	return r.literal("false")
}

func isString(c byte) bool { return c == '"' }

// String decodes a string into *p; null leaves *p unchanged.
func (r *Reader) String(p *string) error {
	if null, err := r.scalar("string", isString); null || err != nil {
		return err
	}
	b, err := r.text()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

// Raw consumes a string and returns its escaped bytes, between the
// quotes and aliasing the document, for Unquote to decode later. A
// null is consumed and returns ok false; any other kind of value is an
// error.
func (r *Reader) Raw() (raw []byte, ok bool, err error) {
	if null, err := r.scalar("string", isString); null || err != nil {
		return nil, false, err
	}
	raw, _, err = r.scanString()
	return raw, err == nil, err
}

// Text decodes a string through u.UnmarshalText, as encoding/json
// decodes into an encoding.TextUnmarshaler; null leaves it unchanged.
func (r *Reader) Text(u encoding.TextUnmarshaler) error {
	if null, err := r.scalar("string", isString); null || err != nil {
		return err
	}
	b, err := r.text()
	if err != nil {
		return err
	}
	return u.UnmarshalText(b)
}

// text consumes a string at the cursor and returns it unescaped, in
// the document when it needs no unescaping, else in r.buf.
func (r *Reader) text() ([]byte, error) {
	raw, plain, err := r.scanString()
	if err != nil || plain {
		return raw, err
	}
	r.buf = unquote(r.buf[:0], raw)
	return r.buf, nil
}

// Unquote decodes the escaped string bytes Raw returned.
func Unquote(raw []byte) string {
	return string(unquote(make([]byte, 0, len(raw)), raw))
}

// strClass classifies string bytes: 0 plain ASCII, 1 the closing
// quote, 2 a backslash, 3 a control character, 4 a non-ASCII byte.
var strClass = func() (t [256]byte) {
	for c := 0; c < ' '; c++ {
		t[c] = 3
	}
	t['"'], t['\\'] = 1, 2
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = 4
	}
	return t
}()

// scanString consumes the string at the cursor and checks its escapes.
// It returns the bytes between the quotes, and plain when they are
// ASCII without escapes, so that they are the string's value as they
// stand.
func (r *Reader) scanString() (raw []byte, plain bool, err error) {
	d := r.data
	start := r.off + 1
	plain = true
	for i := start; ; {
		for i < len(d) && strClass[d[i]] == 0 {
			i++
		}
		if i >= len(d) {
			r.off = i
			return nil, false, r.unexpected("in string literal")
		}
		switch strClass[d[i]] {
		case 1:
			r.off = i + 1
			return d[start:i], plain, nil
		case 2:
			plain = false
			i++
			if i >= len(d) {
				r.off = i
				return nil, false, r.unexpected("in string escape code")
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(d) || unhex(d[i]) < 0 {
						r.off = i
						return nil, false, r.unexpected("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				r.off = i
				return nil, false, r.unexpected("in string escape code")
			}
		case 3:
			r.off = i
			return nil, false, r.unexpected("in string literal")
		case 4:
			plain = false
			i++
		}
	}
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		v = v<<4 | h
	}
	return v
}

// unquote appends the value of the checked string bytes s to b:
// escapes decoded, a surrogate pair joined, and a lone surrogate or a
// byte of invalid UTF-8 replaced by U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
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
				v := u4(s[i:])
				i += 6
				if utf16.IsSurrogate(v) {
					if dec := utf16.DecodeRune(v, u4(s[i:])); dec != utf8.RuneError {
						i += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					v = utf8.RuneError
				}
				b = utf8.AppendRune(b, v)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			v, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, v)
			i += n
		}
	}
	return b
}
