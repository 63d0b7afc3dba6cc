package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// decodeStrict is the envelope decoder's oracle: encoding/json's
// Decoder with DisallowUnknownFields, reading exactly one JSON value
// from data into v. Anything but whitespace after the value is
// rejected, and errors are wrapped as the handlers wrap them.
// decodeRequest and decodeCampaign must accept exactly what it
// accepts, decode to the same values and fail with the same text.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	if off := dec.InputOffset(); len(bytes.TrimLeft(data[off:], " \t\r\n")) > 0 {
		return badRequestError{fmt.Errorf("bad request body: data after the JSON value at offset %d", off)}
	}
	return nil
}

// envelopeSeeds are request and campaign bodies on the edges of
// encoding/json's rules: case-folded and escaped keys, repeated keys,
// nulls, invalid UTF-8, number shapes, nesting depth and trailing data.
var envelopeSeeds = []string{
	`{"system": {"name": "s", "chains": []}, "chain": "c", "k": [1, 10, 100]}`,
	`{"CHAIN": "a", "chain": "b", "Chain": "c"}`,
	`{"chain": "a", "CHAIN": "b"}`,
	"{\"K\": [1, 2]}",  // the Kelvin sign folds to "k"
	"{\"ſystem\": {}}", // the long s folds to "s"
	"{\"İd\": \"x\"}",
	`{"chain": "c", "k\u0000": 1}`,
	`{"chain": "é😀\ud800", "system_dsl": "a\tb\\n\"c\""}`,
	"{\"chain\": \"\xff\xfe\", \"system\": \"\xc3\"}",
	"{\"ch\xffain\": 1}",
	`{"k": [1, 2, 3], "k": [null, null, null, null]}`,
	`{"k": [1, 2, 3, 4, 5], "k": [9], "k": [null, null, null, null, null, null]}`,
	`{"constraints": [{"m": 1, "k": 5}, {"m": 2, "k": 6}], "constraints": [{"k": 9}], "constraints": [{}, {}]}`,
	`{"constraints": [{"m": 1, "k": 5}], "constraints": [], "constraints": [null]}`,
	`{"options": {"flat": true}, "options": {"max_q": 5}, "options": null}`,
	`{"sensitivity": {"m": 1}, "sensitivity": {"tasks": ["a", null]}, "sensitivity": {"tasks": [null, "b"]}}`,
	`{"sensitivity": {"m": 1}, "sensitivity": null}`,
	`{"system": null, "system_dsl": null, "chain": null, "k": null, "breakpoints_max_k": null, "constraints": null, "sensitivity": null, "options": null}`,
	`{"k": []}`,
	`{"system": {"a" : [1, 2.5e-3, -0, true, false, null, "x"]} , "chain" : "c" }`,
	`{"k": [-0, 0, 1]}`,
	`{"k": [1e3]}`,
	`{"k": [1.0]}`,
	`{"k": [-9223372036854775808, 9223372036854775807]}`,
	`{"k": [9223372036854775808]}`,
	`{"k": [-9223372036854775809]}`,
	`{"breakpoints_max_k": 1e308}`,
	`{"options": {"max_combinations": 99999999999999999999, "max_iterations": -1}}`,
	`{"options": {"flat": 1, "bogus": 2}}`,
	`{"options": {"bogus": 2}, "chain": 5}`,
	`{"chain": 5, "bogus": 1}`,
	`{"chain": 5, "bogus": 1,]`,
	`{"options": [1, {"x": 1}], "sensitivity": 5, "constraints": [5], "k": "x", "chain": true}`,
	`{"system": {"deep": ` + strings.Repeat(`[{"a":`, 50) + "1" + strings.Repeat("}]", 50) + `}}`,
	`{"chain": "sigma_c"} {"chain": "x"} garbage`,
	`{"chain": "sigma_c"}` + " \t\r\n",
	`{"chain": "sigma_c"} x`,
	`null`,
	`null x`,
	`nullx`,
	`  `,
	``,
	`5`,
	`[1]`,
	`"x"`,
	`{"a" 1}`,
	`{"a": "\q"}`,
	`{"a": "\u12g4"}`,
	`{"a": -x}`,
	`{"a": 1.x}`,
	`{"a": 1ex}`,
	`{"a": tx}`,
	`{"chain": nul}`,
	"{\"a\": \"\x01\"}",
	`{1: 2}`,
	`{,}`,
	`{"k": [1,]}`,
	`{"k": [1 2]}`,
	`{"k": [01]}`,
	`{"k": [1`,
	`{"chain": "c",}`,
	`{"items": [{"system": {"name": "s"}, "chain": "c", "id": "a", "kind": "dmm"}], "defaults": {"flat": true}}`,
	`{"items": [{"chain": "a", "options": {"max_q": 1}}], "items": [{"id": "x"}, {}], "defaults": null}`,
	`{"items": [{"chain": 5}]}`,
	`{"items": [{"options": {"max_q": "x"}}]}`,
	`{"items": [{"sensitivity": {"tasks": [1]}}]}`,
	`{"items": [{"constraints": [{"m": "x"}]}]}`,
	`{"items": [5, null]}`,
	`{"items": 5, "defaults": 5}`,
	`{"ITEMS": [{"ID": "a", "KIND": "latency"}], "Defaults": {"MAX_Q": 3}}`,
	`{"defaults": {"max_q": "x"}}`,
	`{"items": [{"id": 5}], "bogus": 1}`,
}

// FuzzDecodeEnvelope is the differential check on the envelope decoder:
// for every body, decodeRequest and decodeCampaign accept exactly what
// decodeStrict accepts, decode it to reflect.DeepEqual values and fail
// with the same message. A request body is also tried as a campaign
// item.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got analyzeRequest
		compareDecoders(t, "request", decodeStrict(data, &want), decodeRequest(data, &got), want, got)
		var wantC, gotC campaignRequest
		compareDecoders(t, "campaign", decodeStrict(data, &wantC), decodeCampaign(data, &gotC), wantC, gotC)
		item := []byte(`{"items": [` + string(data) + `]}`)
		wantC, gotC = campaignRequest{}, campaignRequest{}
		compareDecoders(t, "campaign item", decodeStrict(item, &wantC), decodeCampaign(item, &gotC), wantC, gotC)
	})
}

// TestEnvelopeNestingLimit: arrays and objects nest at most 10,000
// deep, counted from the body's root, inside the system as anywhere
// else. (The fuzz seeds nest less deeply: minimizing a 20 KB input
// would take a short fuzz run's whole budget.)
func TestEnvelopeNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000} {
		for _, pair := range [][2]string{{"[", "]"}, {`{"a":`, "}"}} {
			inner := strings.Repeat(pair[0], depth) + "1" + strings.Repeat(pair[1], depth)
			for _, body := range []string{
				`{"system": ` + inner + `}`,
				`{"options": ` + inner + `}`,
				`{"items": [{"system": ` + inner + `}]}`,
			} {
				var want, got analyzeRequest
				compareDecoders(t, "request", decodeStrict([]byte(body), &want), decodeRequest([]byte(body), &got), want, got)
				var wantC, gotC campaignRequest
				compareDecoders(t, "campaign", decodeStrict([]byte(body), &wantC), decodeCampaign([]byte(body), &gotC), wantC, gotC)
			}
		}
	}
}

func compareDecoders(t *testing.T, what string, want, got error, wantV, gotV any) {
	t.Helper()
	switch {
	case (want == nil) != (got == nil):
		t.Fatalf("%s: decodeStrict error %v, envelope decoder error %v", what, want, got)
	case want != nil && want.Error() != got.Error():
		t.Fatalf("%s: decodeStrict error %q, envelope decoder error %q", what, want, got)
	case want == nil && !reflect.DeepEqual(wantV, gotV):
		t.Fatalf("%s: decodeStrict decoded %+v, envelope decoder %+v", what, wantV, gotV)
	}
}

// TestEnvelopeSystemIsSliced: the decoded system is the body's own
// bytes, not a copy, capped so that an append cannot write into the
// rest of the body.
func TestEnvelopeSystemIsSliced(t *testing.T) {
	body := []byte(`{"chain": "c", "system":  {"name": "s"} , "k": [1]}`)
	var req analyzeRequest
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	if string(req.System) != `{"name": "s"}` {
		t.Fatalf("system = %q", req.System)
	}
	start := uintptr(unsafe.Pointer(&body[0]))
	at := uintptr(unsafe.Pointer(&req.System[0]))
	if at < start || at >= start+uintptr(len(body)) {
		t.Error("system was copied out of the body")
	}
	if cap(req.System) != len(req.System) {
		t.Errorf("system has capacity %d beyond its length %d", cap(req.System), len(req.System))
	}
}

// envelopeAllocsCeilings bounds the allocations of decoding one request
// body of each shape, on examples/data/thales.json. Measured on go1.24
// linux/amd64: dmm 2, latency 1, verify 3, sensitivity 2; decodeStrict
// costs 19, 16, 19 and 18. What remains is the chain string, the k and
// constraint slices and the sensitivity block; each ceiling leaves one
// allocation of headroom.
var envelopeAllocsCeilings = []struct {
	shape   string
	req     analyzeRequest
	ceiling float64
}{
	{"dmm", analyzeRequest{Chain: "sigma_c", K: []int64{1, 10, 100}}, 3},
	{"latency", analyzeRequest{Chain: "sigma_c"}, 2},
	{"verify", analyzeRequest{Chain: "sigma_c", Constraints: []wireConstraint{{M: 1, K: 10}, {M: 3, K: 100}}}, 4},
	{"sensitivity", analyzeRequest{Chain: "sigma_c", Sensitivity: &reqSensitivity{M: 5, K: 10, FrontierMaxK: 20}}, 3},
}

// TestEnvelopeDecodeAllocs is the allocation gate on the envelope
// decoder, one ceiling per body shape.
func TestEnvelopeDecodeAllocs(t *testing.T) {
	for _, c := range envelopeAllocsCeilings {
		c.req.System = thalesJSON(t)
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		var req analyzeRequest
		allocs := testing.AllocsPerRun(50, func() {
			req = analyzeRequest{}
			if err := decodeRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		})
		strict := testing.AllocsPerRun(50, func() {
			req = analyzeRequest{}
			if err := decodeStrict(body, &req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s body (%d bytes): %.0f allocs (ceiling %.0f; decodeStrict %.0f)", c.shape, len(body), allocs, c.ceiling, strict)
		if allocs > c.ceiling {
			t.Errorf("%s body: decoding allocates %.0f times, ceiling %.0f", c.shape, allocs, c.ceiling)
		}
	}
}
