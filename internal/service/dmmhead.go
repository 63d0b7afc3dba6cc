package service

import (
	"strconv"

	"repro/internal/schema"
)

// encodeDMMHead encodes a dmmDoc head: the bytes json.MarshalIndent
// writes for dmmHead, without its closing "\n}". A headWriter writes
// them into one buffer of exactly their length, because the head is
// retained in the LRU. Every point's Ω must be sorted by name, as
// schema.FromAnalysisStats makes it for a validated system; the map
// encoder would write the names in that order.
func encodeDMMHead(doc schema.Analysis, hash string) []byte {
	var w headWriter
	w.head(&doc, hash)
	w.buf = make([]byte, 0, w.n)
	w.head(&doc, hash)
	return w.buf
}

// headWriter writes a dmm head twice: first counting its bytes (buf is
// nil), then into buf. Strings go through schema.AppendString, which
// escapes them as encoding/json does.
type headWriter struct {
	buf []byte
	n   int
}

func (w *headWriter) raw(s string) {
	if w.buf == nil {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *headWriter) num(v int64) {
	if w.buf == nil {
		var tmp [20]byte
		w.n += len(strconv.AppendInt(tmp[:0], v, 10))
		return
	}
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

func (w *headWriter) str(s string) {
	if w.buf == nil {
		var tmp [64]byte
		w.n += len(schema.AppendString(tmp[:0], s))
		return
	}
	w.buf = schema.AppendString(w.buf, s)
}

func (w *headWriter) boolean(v bool) {
	if v {
		w.raw("true")
	} else {
		w.raw("false")
	}
}

// head writes the fields of schema.Analysis and dmmHead in declaration
// order, as json.MarshalIndent(…, "", "  ") lays them out.
func (w *headWriter) head(doc *schema.Analysis, hash string) {
	w.raw("{\n  \"schema_version\": ")
	w.num(int64(doc.SchemaVersion))
	w.raw(",\n  \"chain\": ")
	w.str(doc.Chain)
	w.raw(",\n  \"policy\": ")
	w.str(doc.Policy)
	w.raw(",\n  \"deadline\": ")
	w.num(doc.Deadline)
	w.raw(",\n  \"wcl\": ")
	w.num(doc.WCL)
	w.raw(",\n  \"schedulable\": ")
	w.boolean(doc.Schedulable)
	w.raw(",\n  \"typical_schedulable\": ")
	w.boolean(doc.TypicalSchedulable)
	w.raw(",\n  \"min_slack\": ")
	w.num(doc.MinSlack)
	w.raw(",\n  \"combinations\": ")
	w.num(int64(doc.Combinations))
	w.raw(",\n  \"unschedulable_combinations\": ")
	w.num(int64(doc.Unschedulable))
	w.points(",\n  \"dmm\": [", doc.DMM)
	w.points(",\n  \"breakpoints\": [", doc.Breakpoints)
	if doc.Error != "" {
		w.raw(",\n  \"error\": ")
		w.str(doc.Error)
	}
	w.raw(",\n  \"quality\": ")
	w.str(doc.Quality)
	if doc.Budget != "" {
		w.raw(",\n  \"budget\": ")
		w.str(doc.Budget)
	}
	w.raw(",\n  \"system_hash\": ")
	w.str(hash)
}

// points writes a non-empty point array after its key and opening
// bracket open; an empty one is omitted, as omitempty does.
func (w *headWriter) points(open string, ps []schema.DMMPoint) {
	if len(ps) == 0 {
		return
	}
	w.raw(open)
	for i := range ps {
		p := &ps[i]
		if i > 0 {
			w.raw(",")
		}
		w.raw("\n    {\n      \"k\": ")
		w.num(p.K)
		w.raw(",\n      \"dmm\": ")
		w.num(p.DMM)
		w.raw(",\n      \"exact\": ")
		w.boolean(p.Exact)
		if p.Trivial != "" {
			w.raw(",\n      \"trivial\": ")
			w.str(p.Trivial)
		}
		if len(p.Omega) > 0 {
			w.raw(",\n      \"omega\": {")
			for j, e := range p.Omega {
				if j > 0 {
					w.raw(",")
				}
				w.raw("\n        ")
				w.str(e.Name)
				w.raw(": ")
				w.num(e.Value)
			}
			w.raw("\n      }")
		}
		w.raw(",\n      \"quality\": ")
		w.str(p.Quality)
		if p.Budget != "" {
			w.raw(",\n      \"budget\": ")
			w.str(p.Budget)
		}
		w.raw("\n    }")
	}
	w.raw("\n  ]")
}

// headHashField is what encodeDMMHead writes between the analysis and
// the system hash.
const headHashField = ",\n  \"system_hash\": "

// appendDMMLine appends the NDJSON line json.Encoder writes for line, a
// campaign item's dmm line whose analysis is the one head holds (and
// whose every field after "analysis" is empty): the envelope, then the
// head's analysis without its indentation, so a campaign line costs no
// decode and no reflected encode of the document.
func appendDMMLine(dst []byte, line *schema.CampaignLine, head []byte) []byte {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(line.SchemaVersion), 10)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(line.Index), 10)
	if line.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = schema.AppendString(dst, line.ID)
	}
	dst = append(dst, `,"kind":`...)
	dst = schema.AppendString(dst, line.Kind)
	if line.SystemHash != "" {
		dst = append(dst, `,"system_hash":`...)
		dst = schema.AppendString(dst, line.SystemHash)
	}
	if line.Cache != "" {
		dst = append(dst, `,"cache":`...)
		dst = schema.AppendString(dst, line.Cache)
	}
	dst = append(dst, `,"analysis":`...)
	var hash [80]byte
	cut := len(head) - len(headHashField) - len(schema.AppendString(hash[:0], line.SystemHash))
	dst = appendCompact(dst, head[:cut])
	return append(dst, "}}\n"...)
}

// appendCompact appends src, JSON that encodeDMMHead wrote, without the
// whitespace between its tokens.
func appendCompact(dst, src []byte) []byte {
	start := 0
	for i := 0; i < len(src); {
		switch src[i] {
		case '"':
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			i++
		case ' ', '\n':
			dst = append(dst, src[start:i]...)
			for i < len(src) && (src[i] == ' ' || src[i] == '\n') {
				i++
			}
			start = i
		default:
			i++
		}
	}
	return append(dst, src[start:]...)
}
