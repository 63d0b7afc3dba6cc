package service

import "testing"

// FuzzDecodeRequest drives the request-ingestion path — strict envelope
// decode (decodeRequest), system materialization (native JSON or DSL), option
// translation and validation — with adversarial bodies. The contract:
// no input may panic; malformed bodies fail with an error, not a crash.
// This is the same code path the HTTP handlers run before any analysis.
// The envelope decode is also held to its oracle, decodeStrict.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"system_dsl": "system s\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n", "chain": "c", "k": [1, 10]}`))
	f.Add([]byte(`{"system": {"name": "s", "chains": []}, "chain": "c"}`))
	f.Add([]byte(`{"chain": "c", "options": {"max_combinations": -1, "max_q": -9223372036854775808}}`))
	f.Add([]byte(`{"system_dsl": "system", "chain": ""}`))
	f.Add([]byte(`{"constraints": [{"m": -5, "k": 0}], "options": {"no_degrade": true}}`))
	f.Add([]byte(`{"sensitivity": {"m": 9223372036854775807, "k": 1, "scale_denom": -1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"system": "not an object", "system_dsl": "also set"}`))
	f.Add([]byte(`{"breakpoints_max_k": 1e308}`))
	f.Add([]byte(`{"chain":"sigma_c"} {"chain":"x"} garbage`))

	srv, err := New(Config{CacheSize: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, req analyzeRequest
		err := decodeRequest(data, &req)
		compareDecoders(t, "request", decodeStrict(data, &want), err, want, req)
		if err != nil {
			return // rejected at the door, as the handlers would
		}
		// Decoded bodies flow on: materialization and option validation
		// must reject garbage with errors, never panic.
		hash, _, err := srv.system(&req)
		if err != nil {
			return
		}
		// A repeat of accepted bytes resolves from the memo to the same
		// hash, and its deferred decode still succeeds.
		again, lazy, err := srv.system(&req)
		if err != nil || again != hash {
			t.Fatalf("repeat resolved to (%q, %v), first %q", again, err, hash)
		}
		if _, err := lazy.get(); err != nil {
			t.Fatalf("deferred decode of memoized bytes failed: %v", err)
		}
		_ = req.Options.twca().Validate()
		_ = req.Options.latency().Validate()
		if req.Sensitivity != nil {
			_ = req.Sensitivity.options().Validate()
		}
		for _, c := range req.Constraints {
			_ = (wireConstraint{M: c.M, K: c.K}) // shape only; Valid() is checked in handlers
		}
	})
}
