package service

import (
	"crypto/subtle"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/schema"
)

// The cluster admin surface manages the fleet's dynamic membership:
//
//	POST /v1/cluster/join   {"peer": "http://10.0.0.4:8443"}
//	POST /v1/cluster/leave  {"peer": "http://10.0.0.2:8443"}
//	GET  /v1/cluster
//
// Mutations require a real credential: a request is authorized when it
// arrives over loopback (127.0.0.1/::1 — an operator or init system on
// the replica's own host) or when it carries the fleet's shared
// Config.ClusterSecret in the X-Twca-Cluster-Secret header, which is
// how propagated mutations between replicas authenticate themselves.
// The relay forward header is deliberately NOT a credential — any
// client that can reach the port can set a header, and membership
// mutations change who is trusted to answer analyses verbatim, so they
// are held to a stricter standard than relays. With no secret
// configured, mutations are loopback-only: cross-host propagation is
// rejected at the receivers, and a multi-host fleet must either share
// a secret or be scripted per-replica with "local_only": true. The
// membership view (GET) is read-only observability and is served to
// anyone who can reach the port, like /healthz.
//
// A mutation applies to the receiving replica's own view and is then
// propagated best-effort to every other member, so one loopback POST
// updates the whole fleet. Propagation failures are not fatal: a
// replica that missed the update keeps its stale ring, and the forward
// header's one-hop loop guard makes ring disagreement safe — the worst
// case is a relay that lands on a non-owner and is computed there
// (duplicated work, never a wrong answer). The heartbeat prober
// converges routing in the background either way.

// clusterRequest is the body of a membership mutation.
type clusterRequest struct {
	// Peer is the base URL of the replica joining or leaving.
	Peer string `json:"peer"`
	// LocalOnly suppresses propagation to the other members (the
	// operator is scripting per-replica calls themselves).
	LocalOnly bool `json:"local_only,omitempty"`
}

// clusterPeerView is one member in the GET /v1/cluster response.
type clusterPeerView struct {
	URL string `json:"url"`
	// State is "self", "up" or "down" (down per this replica's view:
	// reported by a failed relay or by failed probes, and not yet
	// answering a probe again).
	State string `json:"state"`
}

// clusterResponse is the versioned membership view.
type clusterResponse struct {
	SchemaVersion     int               `json:"schema_version"`
	Self              string            `json:"self"`
	MembershipVersion uint64            `json:"membership_version"`
	Fleet             bool              `json:"fleet"`
	Peers             []clusterPeerView `json:"peers,omitempty"`
	Changed           bool              `json:"changed,omitempty"`
}

// validatePeerURL checks that raw is a usable replica base URL and
// returns it normalized (trailing slash trimmed).
func validatePeerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
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

// clusterSecretHeader carries Config.ClusterSecret on cluster
// membership mutations. Propagated mutations between replicas set it
// automatically (see forward); operators POSTing from off-host set it
// by hand.
const clusterSecretHeader = "X-Twca-Cluster-Secret"

// adminAuthorized reports whether r may mutate membership: it arrived
// over loopback, or it presented the fleet's shared cluster secret.
// The relay forward header is never sufficient — it is a spoofable
// marker any client can set, and admitting a peer URL decides whose
// responses the fleet streams back as authoritative documents.
func (s *Server) adminAuthorized(r *http.Request) bool {
	if sec := s.cfg.ClusterSecret; sec != "" {
		got := r.Header.Get(clusterSecretHeader)
		if got != "" && subtle.ConstantTimeCompare([]byte(got), []byte(sec)) == 1 {
			return true
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// handleClusterJoin admits a replica into the membership.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	s.handleClusterMutation(w, r, "cluster_join", s.store.AddPeer)
}

// handleClusterLeave removes a replica from the membership. Removing
// the receiving replica itself is allowed: it keeps serving (including
// relayed requests) but owns no arcs — the ownership-handoff half of a
// drain.
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	s.handleClusterMutation(w, r, "cluster_leave", s.store.RemovePeer)
}

// handleClusterMutation decodes, authorizes, applies and propagates
// one membership mutation.
func (s *Server) handleClusterMutation(w http.ResponseWriter, r *http.Request, endpoint string, apply func(string) bool) {
	if !s.adminAuthorized(r) {
		s.met.request(endpoint, http.StatusForbidden)
		s.writeJSON(w, http.StatusForbidden, errorResponse{
			SchemaVersion: schema.Version,
			Error:         "cluster membership mutations are accepted only from loopback or with the cluster secret",
			Kind:          "forbidden",
		})
		return
	}
	if s.store.Self() == "" {
		// A server started without -self has no name on the ring.
		// Admitting peers anyway would build a ring that excludes self —
		// every request relayed out, with an empty forward header that
		// voids the one-hop loop guard at the receivers — so membership
		// is frozen until the process is restarted with an identity.
		s.met.request(endpoint, http.StatusConflict)
		s.writeJSON(w, http.StatusConflict, errorResponse{
			SchemaVersion: schema.Version,
			Error:         "this replica has no fleet identity (started without -self); restart it with -self before mutating membership",
			Kind:          "no_fleet_identity",
		})
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, endpoint, err)
		return
	}
	var req clusterRequest
	if err := decodeStrict(body, &req); err != nil {
		s.fail(w, endpoint, err)
		return
	}
	peer, err := validatePeerURL(req.Peer)
	if err != nil {
		s.fail(w, endpoint, badRequestError{err})
		return
	}
	// Snapshot the propagation fan-out before applying: a leave must
	// still reach the leaving replica (so it hands off its own arcs),
	// and the pre-mutation view is the set that knew the old ring.
	before := s.store.Membership()
	changed := apply(peer)
	if changed {
		s.met.membershipChange(endpoint)
	}
	if changed && !req.LocalOnly && !relayed(r) {
		s.propagateMutation(r, endpoint, peer, before.Peers)
	}
	s.met.request(endpoint, http.StatusOK)
	resp := s.clusterView()
	resp.Changed = changed
	s.writeJSON(w, http.StatusOK, resp)
}

// propagateMutation relays the mutation to every other pre-mutation
// member plus the subject peer itself, best-effort: an unreachable
// member just keeps a stale view, which the forward-header loop guard
// already makes safe. On a join the subject instead receives one join
// per pre-mutation member — a newcomer started with only itself and a
// sponsor in -peers learns the whole fleet from the single operator
// POST; on a leave it receives the leave itself, so a remotely-drained
// replica hands off its own arcs.
func (s *Server) propagateMutation(r *http.Request, endpoint, subject string, members []string) {
	type relay struct{ target, peer string }
	var calls []relay
	seen := map[string]bool{s.store.Self(): true, subject: true}
	for _, p := range members {
		if !seen[p] {
			seen[p] = true
			calls = append(calls, relay{target: p, peer: subject})
		}
	}
	switch endpoint {
	case "cluster_join":
		// join(subject) first: a previously-drained replica re-admits
		// itself before (re)learning the rest of the fleet.
		calls = append(calls, relay{target: subject, peer: subject})
		for _, m := range members {
			if m != subject {
				calls = append(calls, relay{target: subject, peer: m})
			}
		}
	case "cluster_leave":
		if subject != s.store.Self() {
			calls = append(calls, relay{target: subject, peer: subject})
		}
	}
	for _, c := range calls {
		body := fmt.Sprintf(`{"peer":%q}`, c.peer)
		resp, err := s.forward(r.Context(), c.target, r.URL.Path, []byte(body))
		if err != nil {
			s.met.membershipPropagationFailure()
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.met.membershipPropagationFailure()
		}
	}
}

// handleClusterGet serves the versioned membership view.
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
		SchemaVersion:     schema.Version,
		Self:              m.Self,
		MembershipVersion: m.Version,
		Fleet:             len(m.Peers) > 0,
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
