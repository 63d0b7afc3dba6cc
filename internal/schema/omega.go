package schema

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/twca"
)

// Omega holds Ω^a_b capacities as (chain name, value) pairs sorted by
// name in byte order, as twca.(*Analysis).AppendOmegas produces them. On
// the wire it is the object encoding/json's map encoder writes for the
// same names and values (keys sorted, HTML-safe escaping), encoded
// without reflection: every dmm point carries one.
type Omega []twca.OmegaEntry

// sorted reports whether the names strictly increase in byte order, the
// key order of encoding/json's map encoder. AppendOmegas on a validated
// system (whose chain names are unique) and UnmarshalJSON produce only
// sorted Omegas.
func (o Omega) sorted() bool {
	for i := 1; i < len(o); i++ {
		if o[i-1].Name >= o[i].Name {
			return false
		}
	}
	return true
}

// MarshalJSON implements json.Marshaler. An Omega that is not sorted is
// encoded as the map of its pairs by json.Marshal, which stays the
// reference.
func (o Omega) MarshalJSON() ([]byte, error) {
	if o == nil {
		return []byte("null"), nil
	}
	if !o.sorted() {
		m := make(map[string]int64, len(o))
		for _, e := range o {
			m[e.Name] = e.Value
		}
		return json.Marshal(m)
	}
	size := len("{}")
	for _, e := range o {
		size += len(e.Name) + len(`"":,`) + len("-9223372036854775808")
	}
	buf := make([]byte, 0, size)
	buf = append(buf, '{')
	for i, e := range o {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = AppendString(buf, e.Name)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, e.Value, 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler: it reads the object
// MarshalJSON writes back into sorted pairs. An object of plain names
// in increasing order with integer values, all MarshalJSON writes for a
// validated system, is read directly; anything else goes through a
// map[string]int64, which also reports malformed input.
func (o *Omega) UnmarshalJSON(data []byte) error {
	if out, ok := parseOmega(data); ok {
		*o = out
		return nil
	}
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*o = nil
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make(Omega, len(names))
	for i, name := range names {
		out[i] = twca.OmegaEntry{Name: name, Value: m[name]}
	}
	*o = out
	return nil
}

// parseOmega reads a JSON object whose names are plainString, strictly
// increasing, and whose values are integers without fraction or
// exponent. ok is false for anything else, including valid JSON that
// needs encoding/json's rules.
func parseOmega(data []byte) (out Omega, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return nil, false
	}
	out = make(Omega, 0, bytes.Count(data, []byte{':'}))
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return out, skipSpace(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '"' {
			return nil, false
		}
		end := bytes.IndexByte(data[i+1:], '"')
		if end < 0 {
			return nil, false
		}
		name := data[i+1 : i+1+end]
		if !plainString(name) || len(out) > 0 && out[len(out)-1].Name >= string(name) {
			return nil, false
		}
		if i = skipSpace(data, i+end+2); i == len(data) || data[i] != ':' {
			return nil, false
		}
		i = skipSpace(data, i+1)
		j := i
		if j < len(data) && data[j] == '-' {
			j++
		}
		digits := j
		for j < len(data) && '0' <= data[j] && data[j] <= '9' {
			j++
		}
		if j == digits || data[digits] == '0' && j-digits > 1 {
			return nil, false // no digits, or a leading zero
		}
		v, err := strconv.ParseInt(string(data[i:j]), 10, 64)
		if err != nil {
			return nil, false
		}
		out = append(out, twca.OmegaEntry{Name: string(name), Value: v})
		switch i = skipSpace(data, j); {
		case i < len(data) && data[i] == ',':
			i = skipSpace(data, i+1)
		case i < len(data) && data[i] == '}':
			return out, skipSpace(data, i+1) == len(data)
		default:
			return nil, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// AppendString appends s encoded as encoding/json encodes a string
// (quoted, HTML-safe escaping, invalid UTF-8 replaced). Strings that
// need no escaping are copied between quotes; the rest go through
// json.Marshal.
func AppendString(dst []byte, s string) []byte {
	if !plainString(s) {
		data, _ := json.Marshal(s) // a string always encodes
		return append(dst, data...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainString reports whether encoding/json writes s verbatim between
// quotes: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plainString[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
