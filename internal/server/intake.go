package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"unicode/utf8"
)

// readBody reads r's body through an http.MaxBytesReader of limit: into
// one buffer of exactly its declared length when that is within limit,
// and with io.ReadAll when the length is unknown (chunked) or over
// limit, which ReadAll reports as an *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// decodeRequest decodes a /v1/place body into req: in one pass when it
// has the form json.Marshal gives a PlaceRequest, with encoding/json
// otherwise. Either way the value and the error are json.Unmarshal's.
func decodeRequest(data []byte, req *PlaceRequest) error {
	if decodeCanonical(data, req) {
		return nil
	}
	*req = PlaceRequest{}
	return json.Unmarshal(data, req)
}

// fieldNames are PlaceRequest's JSON names, indexed by seen-set bit.
var fieldNames = [...]string{"ir", "machine", "strategy", "alloc", "args", "run", "engine", "emit", "tier", "quantum"}

// decodeCanonical is the one-pass path. It accepts an object whose keys
// are fieldNames, spelled exactly and each at most once; strings whose
// escapes are \" \\ \/ \b \f \n \r \t and whose other bytes are valid
// UTF-8 above the control range; integers without fraction, exponent or
// leading zero that fit an int64; true and false; and arrays of such
// integers. It reports false on anything else, half decoded or not.
// Each string is a fresh copy: the function cache keeps Machine,
// Strategy and Alloc, and a substring would pin the whole body.
func decodeCanonical(data []byte, req *PlaceRequest) bool {
	d := scanner{b: data}
	if !d.skip('{') {
		return false
	}
	var seen uint16
	for !d.skip('}') {
		if seen != 0 && !d.skip(',') {
			return false
		}
		// A key with an escape, a control byte or invalid UTF-8
		// matches no field name, so raw's bytes need no check.
		key, ok := d.raw()
		if !ok || !d.skip(':') {
			return false
		}
		f := 0
		for f < len(fieldNames) && fieldNames[f] != string(key) {
			f++
		}
		if f == len(fieldNames) || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		switch fieldNames[f] {
		case "ir":
			req.IR, ok = d.str()
		case "machine":
			req.Machine, ok = d.str()
		case "strategy":
			req.Strategy, ok = d.str()
		case "alloc":
			req.Alloc, ok = d.str()
		case "args":
			req.Args, ok = d.ints()
		case "run":
			req.Run, ok = d.bool()
		case "engine":
			req.Engine, ok = d.str()
		case "emit":
			req.Emit, ok = d.bool()
		case "tier":
			req.Tier, ok = d.bool()
		case "quantum":
			req.Quantum, ok = d.int()
		}
		if !ok {
			return false
		}
	}
	d.space()
	return d.i == len(d.b)
}

// scanner walks a body; each method skips the whitespace before its token.
type scanner struct {
	b []byte
	i int
}

func (d *scanner) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// skip consumes c if it is the next token.
func (d *scanner) skip(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// raw consumes a string token and returns the bytes up to the first quote
// an even number of backslashes precede. It checks nothing; str does.
func (d *scanner) raw() ([]byte, bool) {
	if !d.skip('"') {
		return nil, false
	}
	start := d.i
	for i := start; ; i++ {
		j := bytes.IndexByte(d.b[i:], '"')
		if j < 0 {
			return nil, false
		}
		i += j
		k := i
		for k > start && d.b[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			d.i = i + 1
			return d.b[start:i], true
		}
	}
}

// str reads a string into a fresh copy, checking and unescaping it.
func (d *scanner) str() (string, bool) {
	s, ok := d.raw()
	if !ok {
		return "", false
	}
	var out strings.Builder
	out.Grow(len(s))
	run := 0 // start of the bytes not yet written
	for i := 0; ; {
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			out.Write(s[run:])
			return out.String(), true
		}
		switch c := s[i]; {
		case c == '\\':
			e := unescape[s[i+1]]
			if e == 0 {
				return "", false
			}
			out.Write(s[run:i])
			out.WriteByte(e)
			i += 2
			run = i
		case c < ' ':
			return "", false
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
}

// unescape maps each escape str accepts to its byte. plain marks the
// bytes a string holds as they are: ASCII above the control range but
// the backslash (raw leaves no unescaped quote inside).
var (
	unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
	plain    = func() (p [256]bool) {
		for c := ' '; c < utf8.RuneSelf; c++ {
			p[c] = c != '\\'
		}
		return p
	}()
)

func (d *scanner) bool() (v, ok bool) {
	d.space()
	for _, lit := range []string{"false", "true"} {
		if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
			d.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// int reads an integer with no fraction, exponent or leading zero
// that fits an int64.
func (d *scanner) int() (int64, bool) {
	neg := d.skip('-')
	start := d.i
	var n uint64 // 19 digits cannot overflow it
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' && d.i-start < 19; d.i++ {
		n = n*10 + uint64(d.b[d.i]-'0')
	}
	if digits := d.i - start; digits == 0 || digits > 1 && d.b[start] == '0' ||
		d.i < len(d.b) && strings.IndexByte(".eE0123456789", d.b[d.i]) >= 0 {
		return 0, false
	}
	if neg {
		return -int64(n), n <= 1<<63
	}
	return int64(n), n < 1<<63
}

// ints reads an array of integers. An empty array is an empty,
// non-nil slice, as encoding/json decodes it.
func (d *scanner) ints() ([]int64, bool) {
	if !d.skip('[') {
		return nil, false
	}
	out := []int64{}
	for !d.skip(']') {
		if len(out) > 0 && !d.skip(',') {
			return nil, false
		}
		v, ok := d.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}
