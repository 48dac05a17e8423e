package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"

	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/serve"
)

// TestErrorTaxonomyRoundTrip drives every typed error through the full
// wire cycle — encode to a stable code, map to an HTTP status, decode
// back — and asserts errors.Is matches the same sentinel on both sides,
// the decoded error re-encodes to the same code, and the breaker counts
// the error, before and after the hop, exactly when it says so: the
// table's "node answered" column pinned from outside.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		code      string
		status    int
		sentinel  error
		countable bool
	}{
		{"unavailable", fmt.Errorf("wrapped: %w", fault.ErrUnavailable), CodeUnavailable, http.StatusServiceUnavailable, fault.ErrUnavailable, false},
		{"unavailable typed", &fault.UnavailableError{Buckets: []int{3}, FailedDisks: []int{1}}, CodeUnavailable, http.StatusServiceUnavailable, fault.ErrUnavailable, false},
		{"overloaded", serve.ErrOverloaded, CodeOverloaded, http.StatusTooManyRequests, serve.ErrOverloaded, false},
		{"closed", serve.ErrClosed, CodeClosed, http.StatusServiceUnavailable, serve.ErrClosed, false},
		{"corrupt", &gridfile.CorruptError{}, CodeCorrupt, http.StatusInternalServerError, gridfile.ErrCorrupt, false},
		{"deadline", context.DeadlineExceeded, CodeDeadline, http.StatusGatewayTimeout, context.DeadlineExceeded, true},
		{"canceled", context.Canceled, CodeCanceled, 499, context.Canceled, true},
		{"partial", &PartialError{Uncovered: []grid.Rect{{Lo: grid.Coord{0, 0}, Hi: grid.Coord{1, 1}}}, Shards: []int{2}}, CodePartial, http.StatusPartialContent, ErrPartial, false},
		{"not hosted", fmt.Errorf("%w: node 3", ErrNotHosted), CodeNotHosted, http.StatusMisdirectedRequest, ErrNotHosted, false},
		{"stale epoch", &StaleEpochError{RequestEpoch: 1, NodeEpoch: 2}, CodeStaleEpoch, http.StatusConflict, ErrStaleEpoch, false},
		// ErrNoDonor double-wraps fault.ErrUnavailable (fetchBucket's
		// shape), so on the wire it rides the unavailable code; the
		// no-donor distinction is local to the rebuilding side.
		{"no donor", fmt.Errorf("%w: %w: 3 donors silent", ErrNoDonor, fault.ErrUnavailable), CodeUnavailable, http.StatusServiceUnavailable, fault.ErrUnavailable, false},
		{"bad request", badRequestError{errors.New("bad rect")}, CodeBadRequest, http.StatusBadRequest, ErrBadRequest, false},
		{"internal", errors.New("something else"), CodeInternal, http.StatusInternalServerError, nil, true},
		// Neither crosses the wire as itself — a node never sends one — so
		// both ride internal, and both count: silence indicts the node.
		{"transport", &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}, CodeInternal, http.StatusInternalServerError, nil, true},
		{"node timeout", fmt.Errorf("%w: node 2 after 2s", errNodeTimeout), CodeInternal, http.StatusInternalServerError, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := ErrorCode(tc.err)
			if code != tc.code {
				t.Fatalf("ErrorCode = %q, want %q", code, tc.code)
			}
			if got := HTTPStatus(code); got != tc.status {
				t.Fatalf("HTTPStatus(%q) = %d, want %d", code, got, tc.status)
			}
			decoded := DecodeError(code, tc.err.Error())
			if decoded == nil {
				t.Fatal("DecodeError returned nil for a real error")
			}
			if tc.sentinel != nil && !errors.Is(decoded, tc.sentinel) {
				t.Fatalf("decoded error %v does not match sentinel %v", decoded, tc.sentinel)
			}
			// The taxonomy is a fixed point across arbitrarily many hops.
			if re := ErrorCode(decoded); re != tc.code {
				t.Fatalf("re-encoded code = %q, want %q", re, tc.code)
			}
			if got := breakerCountable(tc.err); got != tc.countable {
				t.Errorf("breakerCountable(%v) = %v, want %v", tc.err, got, tc.countable)
			}
			if got := breakerCountable(decoded); got != tc.countable {
				t.Errorf("breakerCountable(decoded %v) = %v, want %v", decoded, got, tc.countable)
			}
		})
	}
	if ErrorCode(nil) != "" {
		t.Error("ErrorCode(nil) not empty")
	}
	if DecodeError("", "") != nil {
		t.Error("DecodeError of empty code not nil")
	}
	if breakerCountable(nil) {
		t.Error("breakerCountable(nil)")
	}
}

// TestStaleEpochEnvelopeRoundTrip drives a *StaleEpochError through the
// actual HTTP envelope — writeError to a recorder, decodeErrorBody on
// the bytes — and asserts the receiver gets a ready-to-adopt error: the
// epochs intact, the sentinel matching, and the node's current map
// reconstructed bit-identically from its wire spec.
func TestStaleEpochEnvelopeRoundTrip(t *testing.T) {
	g, err := grid.Uniform(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sm2, err := newShardMapAt(g, 5, 2, 1, 7, []int{0, 1, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	orig := &StaleEpochError{RequestEpoch: 3, NodeEpoch: 7, Map: sm2}

	rec := httptest.NewRecorder()
	writeError(rec, orig)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale epoch envelope status = %d, want 409", rec.Code)
	}
	decoded := decodeErrorBody(rec.Code, rec.Body.Bytes())
	if !errors.Is(decoded, ErrStaleEpoch) {
		t.Fatalf("decoded envelope does not match ErrStaleEpoch: %v", decoded)
	}
	var se *StaleEpochError
	if !errors.As(decoded, &se) {
		t.Fatalf("decoded envelope is not a *StaleEpochError: %T", decoded)
	}
	if se.RequestEpoch != 3 || se.NodeEpoch != 7 {
		t.Fatalf("epochs lost in transit: %+v", se)
	}
	if se.Map == nil {
		t.Fatal("envelope lost the node's current map")
	}
	if se.Map.Epoch() != 7 || se.Map.Nodes() != 5 {
		t.Fatalf("reconstructed map: epoch %d nodes %d", se.Map.Epoch(), se.Map.Nodes())
	}
	if got, want := fmt.Sprint(se.Map.Members()), fmt.Sprint(sm2.Members()); got != want {
		t.Fatalf("reconstructed members %s, want %s", got, want)
	}
	for s := 0; s < se.Map.Nodes(); s++ {
		if se.Map.Shard(s).Rect.String() != sm2.Shard(s).Rect.String() {
			t.Fatalf("shard %d rect diverged: %v vs %v", s, se.Map.Shard(s).Rect, sm2.Shard(s).Rect)
		}
	}

	// A non-stale error rides the plain envelope: no epochs, no map.
	rec = httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: node 3", ErrNotHosted))
	decoded = decodeErrorBody(rec.Code, rec.Body.Bytes())
	if !errors.Is(decoded, ErrNotHosted) {
		t.Fatalf("not-hosted envelope decoded to %v", decoded)
	}
	if errors.As(decoded, &se) {
		t.Fatalf("not-hosted envelope decoded as stale epoch: %v", decoded)
	}

	// Foreign (non-envelope) bodies degrade loudly with the status.
	if err := decodeErrorBody(502, []byte("<html>bad gateway</html>")); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("foreign body decode = %v", err)
	}

	// The stale map is never required: an envelope without one still
	// yields a typed stale error (the caller just can't adopt from it).
	rec = httptest.NewRecorder()
	writeError(rec, &StaleEpochError{RequestEpoch: 1, NodeEpoch: 4})
	decoded = decodeErrorBody(rec.Code, rec.Body.Bytes())
	if !errors.As(decoded, &se) || se.Map != nil || se.NodeEpoch != 4 {
		t.Fatalf("mapless stale envelope decoded to %v", decoded)
	}
}

func TestPartialErrorReportsExactRects(t *testing.T) {
	missed := []SubQuery{
		{Shard: 3, Rect: grid.Rect{Lo: grid.Coord{4, 0}, Hi: grid.Coord{7, 3}}},
		{Shard: 1, Rect: grid.Rect{Lo: grid.Coord{0, 4}, Hi: grid.Coord{3, 7}}},
	}
	pe := newPartialError(missed, nil)
	if !errors.Is(pe, ErrPartial) {
		t.Fatal("PartialError does not match ErrPartial")
	}
	if len(pe.Uncovered) != 2 || len(pe.Shards) != 2 {
		t.Fatalf("partial error = %+v", pe)
	}
	// Sorted by shard for deterministic output.
	if pe.Shards[0] != 1 || pe.Shards[1] != 3 {
		t.Fatalf("shards = %v, want [1 3]", pe.Shards)
	}
	if pe.Uncovered[0].Lo[1] != 4 {
		t.Fatalf("uncovered[0] = %v, want shard 1's rect", pe.Uncovered[0])
	}
}
