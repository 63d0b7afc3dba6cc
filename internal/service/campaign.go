package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/schema"
)

// campaignItem is one system/query of a campaign: the unary request
// envelope plus an optional client correlation ID and the analysis kind
// ("dmm", the default, or "latency").
type campaignItem struct {
	analyzeRequest
	ID   string `json:"id,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// campaignRequest is the /v1/campaign body: many items, analyzed
// through the same worker pool, artifact store and degradation ladder
// as the unary endpoints, with results streamed back as NDJSON in item
// order.
type campaignRequest struct {
	Items []campaignItem `json:"items"`
	// Defaults, when set, replaces the options of every item that left
	// its options block entirely unset — the common sweep shape of "many
	// systems, one configuration" without repeating it per item.
	Defaults *reqOptions `json:"defaults,omitempty"`
}

// handleCampaign streams one schema.CampaignLine per item as NDJSON.
// The stream commits to 200 before the first analysis runs; item
// failures become campaign_partial lines instead of aborting, and a
// final summary line closes the stream. The per-request timeout applies
// per item, not to the whole stream.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, "campaign", err)
		return
	}
	var req campaignRequest
	if err := decodeCampaign(body, &req); err != nil {
		s.fail(w, "campaign", err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, "campaign", badRequestError{fmt.Errorf("campaign needs items")})
		return
	}
	if len(req.Items) > s.cfg.MaxCampaignItems {
		s.fail(w, "campaign", badRequestError{
			fmt.Errorf("campaign has %d items; the limit is %d — split the sweep", len(req.Items), s.cfg.MaxCampaignItems)})
		return
	}

	workers := s.cfg.CampaignWorkers
	if workers <= 0 {
		workers = s.cfg.MaxInflight
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Workers push completed lines over a small bounded channel; the
	// writer drains it, reordering into request order. A slow reader
	// therefore exerts backpressure: once the channel and the writer's
	// reorder buffer absorb the in-flight items, workers block before
	// starting new analyses instead of racing ahead of the consumer. A
	// disconnected client cancels ctx, which fails the remaining items
	// instantly and frees the workers (and their admission slots).
	ctx := r.Context()
	type indexed struct {
		i    int
		line schema.CampaignLine
		// raw, when set, is the line already encoded.
		raw []byte
	}
	results := make(chan indexed, 2*workers)
	go func() {
		defer close(results)
		// Worker panics inside an item surface as that item's
		// campaign_partial line via the store/parallel recovery, so the
		// error return here is always nil.
		parallel.ForEach(workers, len(req.Items), func(i int) error {
			line, raw := s.campaignLine(ctx, req.Items[i], i, req.Defaults)
			select {
			case results <- indexed{i, line, raw}:
			case <-ctx.Done():
			}
			return nil
		})
	}()

	enc := json.NewEncoder(w) // compact marshal; Encode terminates each line with \n
	next, failed := 0, 0
	pending := make(map[int]indexed, workers)
	for res := range results {
		pending[res.i] = res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if ctx.Err() != nil {
				continue // client gone: drain the pool without writing
			}
			ok = res.line.Kind != schema.CampaignKindPartial
			if !ok {
				failed++
			}
			s.met.campaignItem(ok)
			if res.raw != nil {
				w.Write(res.raw)
			} else {
				enc.Encode(res.line)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if ctx.Err() == nil {
		enc.Encode(schema.CampaignLine{
			SchemaVersion: schema.Version,
			Index:         len(req.Items),
			Kind:          schema.CampaignKindSummary,
			Items:         len(req.Items),
			Failed:        failed,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.met.request("campaign", http.StatusOK)
}

// campaignLine evaluates one item to its stream line: validated,
// routed to the owning replica when the fleet is sharded (with local
// fallback if the owner is unreachable), computed through the shared
// document helpers otherwise. A dmm line computed here comes back
// encoded as well (raw), spliced from the retained document head.
func (s *Server) campaignLine(ctx context.Context, item campaignItem, i int, defaults *reqOptions) (line schema.CampaignLine, raw []byte) {
	line = schema.CampaignLine{SchemaVersion: schema.Version, Index: i, ID: item.ID}
	kind := item.Kind
	if kind == "" {
		kind = schema.CampaignKindDMM
	}
	if kind != schema.CampaignKindDMM && kind != schema.CampaignKindLatency {
		return partialLine(line, fmt.Sprintf("unknown item kind %q (want %q or %q)",
			item.Kind, schema.CampaignKindDMM, schema.CampaignKindLatency), "invalid_options"), nil
	}
	line.Kind = kind
	if defaults != nil && item.Options == (reqOptions{}) {
		item.Options = *defaults
	}
	hash, sys, err := s.system(&item.analyzeRequest)
	if err != nil {
		return partialLine(line, err.Error(), "bad_request"), nil
	}
	line.SystemHash = hash
	ictx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	if s.store.Fleet() {
		if cands := s.store.RemoteCandidates(routeKey(hash)); len(cands) > 0 {
			switch kind {
			case schema.CampaignKindDMM:
				doc, state, err := s.relayItemDMM(ictx, cands, &item.analyzeRequest)
				if err == nil {
					line.Analysis, line.Cache = &doc, state
					return line, nil
				}
				if line, ok := remoteOutcome(line, err); ok {
					return line, nil
				}
			case schema.CampaignKindLatency:
				doc, state, err := s.relayItemLatency(ictx, cands, &item.analyzeRequest)
				if err == nil {
					line.Latency, line.Cache = &doc, state
					return line, nil
				}
				if line, ok := remoteOutcome(line, err); ok {
					return line, nil
				}
			}
			// Every candidate arc exhausted (or the owner is shedding
			// load): fall through to local compute. The bound is
			// recomputed from scratch here, so a replica death
			// mid-campaign costs duplicated work, never soundness.
			s.store.CountLocalFallback()
		}
	}

	switch kind {
	case schema.CampaignKindDMM:
		d, state, err := s.dmmDocument(ictx, &item.analyzeRequest, sys, hash)
		if err != nil {
			return s.localFailure(line, err), nil
		}
		for budget, n := range d.stats.Degraded {
			s.met.degraded(budget, n)
		}
		line.Cache = state
		return line, appendDMMLine(make([]byte, 0, len(d.head)+256+len(line.ID)), &line, d.head)
	case schema.CampaignKindLatency:
		res, state, err := s.latencyResult(ictx, &item.analyzeRequest, sys, hash)
		if err != nil {
			return s.localFailure(line, err), nil
		}
		if q := res.Quality; q.Degraded() {
			s.met.degraded(q.Budget, 1)
		}
		doc := schema.FromLatency(res)
		line.Latency, line.Cache = &doc, state
	}
	return line, nil
}

// partialLine converts line into a campaign_partial error line.
func partialLine(line schema.CampaignLine, msg, cause string) schema.CampaignLine {
	line.Kind = schema.CampaignKindPartial
	line.Error = msg
	line.Cause = cause
	return line
}

// remoteOutcome maps a relay error: an owner-classified item failure
// becomes this item's partial line (ok=true); a peer-unavailable error
// returns ok=false, telling the caller to recompute locally.
func remoteOutcome(line schema.CampaignLine, err error) (schema.CampaignLine, bool) {
	var remote remoteItemError
	if errors.As(err, &remote) {
		return partialLine(line, remote.msg, remote.kind), true
	}
	return line, false
}

// localFailure converts a local item error into its partial line, with
// the same sentinel classification (and worker-panic accounting) the
// unary endpoints report.
func (s *Server) localFailure(line schema.CampaignLine, err error) schema.CampaignLine {
	_, cause := classify(err)
	if errors.As(err, new(badRequestError)) {
		cause = "bad_request"
	}
	if cause == "worker_panic" {
		s.met.workerPanic()
	}
	return partialLine(line, err.Error(), cause)
}
