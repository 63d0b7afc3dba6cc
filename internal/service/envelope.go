package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The request envelopes are read by a hand-written decoder instead of
// encoding/json. A Decoder scans a body twice (once to find the value,
// once to unmarshal it), copies the embedded system into a
// json.RawMessage and sets every field by reflection; on a warm read
// that is most of the request's cost. envDecoder walks the body once,
// slices System out of it and sets the fields directly.
//
// It accepts exactly what a json.Decoder with DisallowUnknownFields
// accepts and decodes it to the same values, which FuzzDecodeEnvelope
// checks against that Decoder:
//   - keys match a field's name exactly first, then case-folded as
//     encoding/json folds them (so "CHAIN" and the Kelvin sign "K" for
//     "k" are accepted), escaped keys included;
//   - a repeated key decodes into what the earlier one left, as
//     encoding/json does: objects merge, and slices reuse their
//     elements;
//   - null leaves a value as it is, and sets a slice or pointer to nil;
//   - an integer field takes a number strconv.ParseInt accepts, so
//     "1e3" and "1.0" are rejected and "-0" is 0;
//   - arrays and objects nest at most 10,000 deep, and only whitespace
//     may follow the value.
//
// Errors carry encoding/json's messages: a syntax error anywhere in the
// body wins over the first unknown field or wrong type, as it does in a
// Decoder, which scans the whole value before unmarshaling it.

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// requestFields are the JSON names of analyzeRequest's fields, in
// declaration order, then campaignItem's own two.
var requestFields = []string{"system", "system_dsl", "chain", "k", "breakpoints_max_k", "constraints", "sensitivity", "options", "id", "kind"}

var (
	optionFields      = []string{"max_combinations", "exact_criterion", "flat", "baseline", "no_carry_in", "max_q", "horizon", "max_iterations", "no_degrade", "policy"}
	sensitivityFields = []string{"m", "k", "frontier_max_k", "scale_denom", "max_scale", "max_jitter", "tasks", "no_warm_start"}
	constraintFields  = []string{"m", "k"}
	campaignFields    = []string{"items", "defaults"}
)

// decodeRequest strictly parses body, one analyzeRequest, into req.
// req.System is a sub-slice of body.
func decodeRequest(body []byte, req *analyzeRequest) error {
	d := envDecoder{data: body}
	open, err := d.top("service.analyzeRequest")
	if err == nil && open {
		err = d.envelope(req, nil)
	}
	return d.end(err)
}

// decodeCampaign strictly parses body, one campaignRequest, into req.
// Each item's System is a sub-slice of body.
func decodeCampaign(body []byte, req *campaignRequest) error {
	d := envDecoder{data: body}
	open, err := d.top("service.campaignRequest")
	if err == nil && open {
		err = d.campaign(req)
	}
	return d.end(err)
}

// envDecoder reads one JSON value from data, starting at off.
type envDecoder struct {
	data  []byte
	off   int
	depth int
	// err is the first unknown field or mistyped value. Decoding goes
	// on past it, so a later syntax error still takes precedence.
	err error
}

// site names where a value lands, for error messages: the Go struct
// declaring the field and the field's JSON path from the body's root,
// prefix+mid+name.
type site struct{ strct, prefix, mid, name string }

// top reads up to the body's value: open is true when it is an object,
// left for the caller to read. A null is read and leaves the request
// zero; any other value is read and recorded as a type error.
func (d *envDecoder) top(typ string) (open bool, err error) {
	d.ws()
	if d.off == len(d.data) {
		return false, io.EOF
	}
	switch d.data[d.off] {
	case '{':
		return true, nil
	case 'n':
		return false, d.skip()
	}
	kind := d.kind()
	if err := d.skip(); err != nil {
		return false, err
	}
	d.fail(errors.New("json: cannot unmarshal " + kind + " into Go value of type " + typ))
	return false, nil
}

// end turns the outcome of a decode into the handlers' error, worded
// as a json.Decoder words it: a syntax error, else the first field
// error, else data after the value.
func (d *envDecoder) end(err error) error {
	if err == nil {
		err = d.err
	}
	if err != nil {
		return badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	off := d.off
	if d.ws(); d.off < len(d.data) {
		return badRequestError{fmt.Errorf("bad request body: data after the JSON value at offset %d", off)}
	}
	return nil
}

// fail records err unless an earlier field error is recorded.
func (d *envDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// mismatch skips a value of the wrong kind for the field at, of Go
// type typ, and records the type error.
func (d *envDecoder) mismatch(at site, typ string) error {
	kind := d.kind()
	if err := d.skip(); err != nil {
		return err
	}
	d.fail(errors.New("json: cannot unmarshal " + kind + " into Go struct field " +
		at.strct + "." + at.prefix + at.mid + at.name + " of type " + typ))
	return nil
}

// kind names the JSON type of the value starting at d.off as
// encoding/json's type errors do ("" if no value starts there).
func (d *envDecoder) kind() string {
	if d.off == len(d.data) {
		return ""
	}
	switch c := d.data[d.off]; {
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == '"':
		return "string"
	case c == 't' || c == 'f':
		return "bool"
	case c == '-' || '0' <= c && c <= '9':
		return "number"
	}
	return ""
}

func (d *envDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\r', '\n':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the data.
func (d *envDecoder) peek() byte {
	if d.off == len(d.data) {
		return 0
	}
	return d.data[d.off]
}

// syntax is the syntax error for the byte at d.off, found in context.
func (d *envDecoder) syntax(context string) error {
	if d.off == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return errors.New("invalid character " + quoteChar(d.data[d.off]) + " " + context)
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// push enters the array or object opening at d.off.
func (d *envDecoder) push() error {
	if d.depth++; d.depth > maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	d.off++
	return nil
}

// field advances to the next member of the object being read and
// returns the index of its key in names, or -1 with the key, unquoted,
// for the error; more is false once the object has closed. first is
// true for the object's first member. On return with more, d.off is at
// the member's value. With names nil the key is only validated.
func (d *envDecoder) field(first bool, names []string) (idx int, key []byte, more bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == '}':
		d.off++
		d.depth--
		return 0, nil, false, nil
	case first:
	case c == ',':
		d.off++
		d.ws()
	default:
		return 0, nil, false, d.syntax("after object key:value pair")
	}
	if d.peek() != '"' {
		return 0, nil, false, d.syntax("looking for beginning of object key string")
	}
	start := d.off
	plain, err := d.scanString()
	if err != nil {
		return 0, nil, false, err
	}
	if names != nil {
		if plain {
			key = d.data[start+1 : d.off-1]
		} else {
			s, err := d.unquote(start)
			if err != nil {
				return 0, nil, false, err
			}
			key = []byte(s)
		}
		idx = match(key, names)
	}
	d.ws()
	if d.peek() != ':' {
		return 0, nil, false, d.syntax("after object key")
	}
	d.off++
	d.ws()
	return idx, key, true, nil
}

// unquote decodes the string token d.data[start:d.off] with
// encoding/json, which also replaces invalid UTF-8. Only strings with an
// escape or a non-ASCII byte need it.
func (d *envDecoder) unquote(start int) (string, error) {
	var s string
	err := json.Unmarshal(d.data[start:d.off], &s)
	return s, err
}

// scanString reads the string at d.off; plain reports that it holds
// neither an escape nor a non-ASCII byte.
func (d *envDecoder) scanString() (plain bool, err error) {
	plain = true
	for i := d.off + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return plain, nil
		case c == '\\':
			// An escape cut off by the end of the data ends the loop
			// (through the breaks), which is an unexpected EOF.
			plain = false
			if i++; i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i++; i == len(d.data) {
						break
					}
					if !isHex(d.data[i]) {
						d.off = i
						return false, d.syntax(`in \u hexadecimal character escape`)
					}
				}
			default:
				d.off = i
				return false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.off = len(d.data)
	return false, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (d *envDecoder) digit() bool {
	return d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9'
}

// scanNumber reads the number at d.off (which starts with '-' or a
// digit).
func (d *envDecoder) scanNumber() error {
	if d.data[d.off] == '-' {
		if d.off++; !d.digit() {
			return d.syntax("in numeric literal")
		}
	}
	if d.data[d.off] == '0' {
		d.off++
	} else {
		for d.digit() {
			d.off++
		}
	}
	if d.peek() == '.' {
		if d.off++; !d.digit() {
			return d.syntax("after decimal point in numeric literal")
		}
		for d.digit() {
			d.off++
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digit() {
			return d.syntax("in exponent of numeric literal")
		}
		for d.digit() {
			d.off++
		}
	}
	return nil
}

// literal reads true, false or null, whose first byte is at d.off.
func (d *envDecoder) literal(word string) error {
	d.off++
	for i := 1; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntax("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
		}
		d.off++
	}
	return nil
}

// skip reads and validates any one value.
func (d *envDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, func(int) error { return d.skip() })
	case c == '[':
		if err := d.push(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.nextElem(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.scanString()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.scanNumber()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// nextElem advances to the next element of the array being read; more
// is false once the array has closed. first is true for the first
// element. On return with more, d.off is at the element.
func (d *envDecoder) nextElem(first bool) (more bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == ']':
		d.off++
		d.depth--
		return false, nil
	case first:
	case c == ',':
		d.off++
		d.ws()
	default:
		return false, d.syntax("after array element")
	}
	return true, nil
}

// match returns the index of the field key names, or -1: an exact
// match first, then one under encoding/json's case folding.
func match(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(key, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the same bytes as name, a
// lower-case ASCII field name, under encoding/json's folding: ASCII
// letters to upper case, every other rune to the smallest rune of its
// unicode.SimpleFold orbit. So the Kelvin sign folds to 'K' and the
// long s to 'S', while the dotted capital I folds to itself.
func foldEqual(key []byte, name string) bool {
	j := 0
	for len(key) > 0 {
		var r rune
		if c := key[0]; c < utf8.RuneSelf {
			r = rune(c)
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
			key = key[1:]
		} else {
			var n int
			r, n = utf8.DecodeRune(key)
			r = foldRune(r)
			key = key[n:]
		}
		if j == len(name) {
			return false
		}
		c := name[j]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if r != rune(c) {
			return false
		}
		j++
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's unicode.SimpleFold orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// unknown records key as an unknown field and skips its value.
func (d *envDecoder) unknown(key []byte) error {
	if err := d.skip(); err != nil {
		return err
	}
	d.fail(fmt.Errorf("json: unknown field %q", key))
	return nil
}

// object reads the object at d.off, calling field with the index in
// names of each member's key; members with other keys are unknown
// fields. On each call d.off is at the member's value. With names nil
// every member is passed on, as index 0.
func (d *envDecoder) object(names []string, field func(idx int) error) error {
	if err := d.push(); err != nil {
		return err
	}
	for first := true; ; first = false {
		idx, key, more, err := d.field(first, names)
		if err != nil || !more {
			return err
		}
		if idx < 0 {
			err = d.unknown(key)
		} else {
			err = field(idx)
		}
		if err != nil {
			return err
		}
	}
}

// envelope reads the object at d.off into req. item, when not nil, is
// the campaign item embedding req, which takes "id" and "kind" too.
func (d *envDecoder) envelope(req *analyzeRequest, item *campaignItem) error {
	strct, prefix, names := "analyzeRequest", "", requestFields[:8]
	if item != nil {
		strct, prefix, names = "campaignItem", "items.analyzeRequest.", requestFields
	}
	at := func(name string) site { return site{strct, prefix, "", name} }
	return d.object(names, func(idx int) error {
		switch idx {
		case 0:
			start := d.off
			if err := d.skip(); err != nil {
				return err
			}
			req.System = d.data[start:d.off:d.off]
			return nil
		case 1:
			return d.stringField(&req.SystemDSL, at("system_dsl"))
		case 2:
			return d.stringField(&req.Chain, at("chain"))
		case 3:
			return d.int64s(&req.K, at("k"))
		case 4:
			return d.int64Field(&req.BreakpointsMaxK, at("breakpoints_max_k"))
		case 5:
			return d.constraints(&req.Constraints, at("constraints"))
		case 6:
			return d.sensitivity(&req.Sensitivity, at("sensitivity"))
		case 7:
			return d.options(&req.Options, at("options"), "options.")
		case 8:
			return d.stringField(&item.ID, site{strct, "items.", "", "id"})
		}
		return d.stringField(&item.Kind, site{strct, "items.", "", "kind"})
	})
}

// campaign reads the object at d.off into req.
func (d *envDecoder) campaign(req *campaignRequest) error {
	return d.object(campaignFields, func(idx int) error {
		if idx == 0 {
			return d.items(&req.Items)
		}
		at := site{"campaignRequest", "", "", "defaults"}
		switch d.peek() {
		case 'n':
			req.Defaults = nil
			return d.skip()
		case '{':
			if req.Defaults == nil {
				req.Defaults = new(reqOptions)
			}
			return d.options(req.Defaults, at, "defaults.")
		}
		return d.mismatch(at, "service.reqOptions")
	})
}

// items reads the campaign's item array into *dst.
func (d *envDecoder) items(dst *[]campaignItem) error {
	at := site{"campaignRequest", "", "", "items"}
	return decodeSlice(d, dst, 0, at, "[]service.campaignItem", func(it *campaignItem) error {
		switch d.peek() {
		case '{':
			return d.envelope(&it.analyzeRequest, it)
		case 'n':
			return d.skip()
		}
		return d.mismatch(at, "service.campaignItem")
	})
}

// options reads a reqOptions object at d.off into o; at names the
// field holding it, and mid is that field's name and a dot, the path
// of the options' own fields below at.prefix.
func (d *envDecoder) options(o *reqOptions, at site, mid string) error {
	switch d.peek() {
	case '{':
	case 'n':
		return d.skip()
	default:
		return d.mismatch(at, "service.reqOptions")
	}
	f := func(name string) site { return site{"reqOptions", at.prefix, mid, name} }
	return d.object(optionFields, func(idx int) error {
		switch idx {
		case 0:
			return d.intField(&o.MaxCombinations, f("max_combinations"))
		case 1:
			return d.boolField(&o.ExactCriterion, f("exact_criterion"))
		case 2:
			return d.boolField(&o.Flat, f("flat"))
		case 3:
			return d.boolField(&o.Baseline, f("baseline"))
		case 4:
			return d.boolField(&o.NoCarryIn, f("no_carry_in"))
		case 5:
			return d.int64Field(&o.MaxQ, f("max_q"))
		case 6:
			return d.int64Field(&o.Horizon, f("horizon"))
		case 7:
			return d.intField(&o.MaxIterations, f("max_iterations"))
		case 8:
			return d.boolField(&o.NoDegrade, f("no_degrade"))
		}
		return d.stringField(&o.Policy, f("policy"))
	})
}

// sensitivity reads the sensitivity block at d.off into *dst.
func (d *envDecoder) sensitivity(dst **reqSensitivity, at site) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.skip()
	case '{':
	default:
		return d.mismatch(at, "service.reqSensitivity")
	}
	if *dst == nil {
		*dst = new(reqSensitivity)
	}
	rs := *dst
	f := func(name string) site { return site{"reqSensitivity", at.prefix, "sensitivity.", name} }
	return d.object(sensitivityFields, func(idx int) error {
		switch idx {
		case 0:
			return d.int64Field(&rs.M, f("m"))
		case 1:
			return d.int64Field(&rs.K, f("k"))
		case 2:
			return d.int64Field(&rs.FrontierMaxK, f("frontier_max_k"))
		case 3:
			return d.int64Field(&rs.ScaleDenom, f("scale_denom"))
		case 4:
			return d.int64Field(&rs.MaxScale, f("max_scale"))
		case 5:
			return d.int64Field(&rs.MaxJitter, f("max_jitter"))
		case 6:
			at := f("tasks")
			return decodeSlice(d, &rs.Tasks, 0, at, "[]string", func(s *string) error { return d.stringField(s, at) })
		}
		return d.boolField(&rs.NoWarmStart, f("no_warm_start"))
	})
}

// constraints reads the verify constraints at d.off into *dst.
func (d *envDecoder) constraints(dst *[]wireConstraint, at site) error {
	f := func(name string) site { return site{"wireConstraint", at.prefix, "constraints.", name} }
	return decodeSlice(d, dst, 0, at, "[]service.wireConstraint", func(c *wireConstraint) error {
		switch d.peek() {
		case 'n':
			return d.skip()
		case '{':
		default:
			return d.mismatch(at, "service.wireConstraint")
		}
		return d.object(constraintFields, func(idx int) error {
			if idx == 0 {
				return d.int64Field(&c.M, f("m"))
			}
			return d.int64Field(&c.K, f("k"))
		})
	})
}

// int64s reads an array of integers at d.off into *dst, sized by a
// look ahead when the array holds only numbers.
func (d *envDecoder) int64s(dst *[]int64, at site) error {
	return decodeSlice(d, dst, d.numbersAhead(), at, "[]int64", func(v *int64) error { return d.int64Field(v, at) })
}

// numbersAhead counts the elements of the array at d.off when it holds
// only numbers and whitespace, and returns 0 otherwise. It is only a
// capacity hint: decodeSlice's result does not depend on it.
func (d *envDecoder) numbersAhead() int {
	if d.peek() != '[' {
		return 0
	}
	n := 1
	for _, c := range d.data[d.off+1:] {
		switch {
		case c == ']':
			return n
		case c == ',':
			n++
		case c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || '0' <= c && c <= '9':
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
		default:
			return 0
		}
	}
	return 0
}

// decodeSlice reads the array at d.off into *dst as encoding/json
// does: the elements decode into the existing ones, so a repeated key
// reuses what the earlier array left, including elements past the
// length but within the capacity; an empty array is an empty, non-nil
// slice; null is nil. hint, when the slice has no capacity yet, sizes
// it; since stale elements only ever sit below the capacity at which
// they were written, the values decoded do not depend on it.
func decodeSlice[T any](d *envDecoder, dst *[]T, hint int, at site, typ string, elem func(*T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		*dst = nil
		return d.skip()
	default:
		return d.mismatch(at, typ)
	}
	if err := d.push(); err != nil {
		return err
	}
	s := *dst
	if cap(s) == 0 && hint > 0 {
		s = make([]T, 0, hint)
	}
	i := 0
	for ; ; i++ {
		more, err := d.nextElem(i == 0)
		if err != nil {
			*dst = s
			return err
		}
		if !more {
			break
		}
		switch {
		case i == cap(s):
			var zero T
			s = append(s, zero)
		case i >= len(s):
			s = s[:i+1]
		}
		if err := elem(&s[i]); err != nil {
			*dst = s
			return err
		}
	}
	if i == 0 {
		s = make([]T, 0)
	}
	*dst = s[:i]
	return nil
}

// stringField reads a string field at d.off into *dst.
func (d *envDecoder) stringField(dst *string, at site) error {
	switch d.peek() {
	case '"':
		start := d.off
		plain, err := d.scanString()
		switch {
		case err != nil:
			return err
		case plain:
			*dst = string(d.data[start+1 : d.off-1])
			return nil
		}
		*dst, err = d.unquote(start)
		return err
	case 'n':
		return d.skip()
	}
	return d.mismatch(at, "string")
}

// boolField reads a bool field at d.off into *dst.
func (d *envDecoder) boolField(dst *bool, at site) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.skip()
	}
	return d.mismatch(at, "bool")
}

// int64Field reads an int64 field at d.off into *dst.
func (d *envDecoder) int64Field(dst *int64, at site) error {
	n, ok, err := d.integer(at, "int64", 64)
	if ok {
		*dst = n
	}
	return err
}

// intField reads an int field at d.off into *dst.
func (d *envDecoder) intField(dst *int, at site) error {
	n, ok, err := d.integer(at, "int", strconv.IntSize)
	if ok {
		*dst = int(n)
	}
	return err
}

// integer reads an integer field of Go type typ and the given bit size
// at d.off; ok is false for null and for anything the field cannot
// hold (which is recorded).
func (d *envDecoder) integer(at site, typ string, bits int) (n int64, ok bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return 0, false, d.skip()
	case c == '-' || '0' <= c && c <= '9':
	default:
		return 0, false, d.mismatch(at, typ)
	}
	start := d.off
	if err := d.scanNumber(); err != nil {
		return 0, false, err
	}
	tok := d.data[start:d.off]
	n, ok = parseInt(tok, bits)
	if !ok {
		d.fail(errors.New("json: cannot unmarshal number " + string(tok) + " into Go struct field " +
			at.strct + "." + at.prefix + at.mid + at.name + " of type " + typ))
	}
	return n, ok, nil
}

// parseInt parses a JSON number token as strconv.ParseInt(tok, 10,
// bits) would, failing on a fraction, an exponent or overflow.
func parseInt(tok []byte, bits int) (int64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	limit := uint64(1) << (bits - 1) // |min|; max is limit-1
	var u uint64
	for _, c := range tok {
		if c < '0' || c > '9' || u > limit/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
		if u > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	if u == limit {
		return 0, false
	}
	return int64(u), true
}
