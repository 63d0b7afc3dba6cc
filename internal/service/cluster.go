package service

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/schema"
)

// The fleet's membership is fixed at start-up: Config.Peers builds the
// ring once, and a new peer list takes a restart. GET /v1/cluster is
// the read-only view of it, with each peer's state in this replica's
// down set. It is served to anyone who can reach the port, like
// /healthz.

// clusterPeerView is one member in the GET /v1/cluster response.
type clusterPeerView struct {
	URL string `json:"url"`
	// State is "self", "up" or "down" (down per this replica's view:
	// reported by a failed relay or by failed probes, and not yet
	// answering a probe again).
	State string `json:"state"`
}

// clusterResponse is the membership view.
type clusterResponse struct {
	SchemaVersion int               `json:"schema_version"`
	Self          string            `json:"self"`
	Fleet         bool              `json:"fleet"`
	Peers         []clusterPeerView `json:"peers,omitempty"`
}

// trimPeerURL normalizes a replica base URL: surrounding space and
// trailing slashes go.
func trimPeerURL(raw string) string { return strings.TrimRight(strings.TrimSpace(raw), "/") }

// validatePeerURL checks that raw is a usable replica base URL and
// returns it normalized by trimPeerURL.
func validatePeerURL(raw string) (string, error) {
	raw = trimPeerURL(raw)
	if raw == "" {
		return "", fmt.Errorf("peer URL is empty")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("peer URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer URL %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("peer URL %q: missing host", raw)
	}
	if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("peer URL %q: must be a bare base URL (no path, query or fragment)", raw)
	}
	return raw, nil
}

// handleClusterGet serves the membership view.
func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	s.met.request("cluster_get", http.StatusOK)
	s.writeJSON(w, http.StatusOK, s.clusterView())
}

// clusterView assembles the current membership snapshot. A peer is
// reported "down" when it is in the store's down set, which the
// heartbeat alone writes — the same set routing reads.
func (s *Server) clusterView() clusterResponse {
	m := s.store.Membership()
	resp := clusterResponse{
		SchemaVersion: schema.Version,
		Self:          m.Self,
		Fleet:         len(m.Peers) > 0,
	}
	down := make(map[string]bool, len(m.Down))
	for _, p := range m.Down {
		down[p] = true
	}
	for _, p := range m.Peers {
		state := "up"
		switch {
		case p == m.Self:
			state = "self"
		case down[p]:
			state = "down"
		}
		resp.Peers = append(resp.Peers, clusterPeerView{URL: p, State: state})
	}
	return resp
}
