package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"

	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/serve"
)

// The cluster speaks one error taxonomy across the wire. Every failure
// a node can return maps to a stable string code; the router decodes
// the code back into the same typed error the node saw, so errors.Is
// works identically whether the failure happened in-process or three
// HTTP hops away.
const (
	// CodeUnavailable: data is unreachable (fault.ErrUnavailable — all
	// replicas of some bucket are down on the serving node).
	CodeUnavailable = "unavailable"
	// CodeOverloaded: admission control shed the query (serve.ErrOverloaded).
	CodeOverloaded = "overloaded"
	// CodeClosed: the scheduler is draining or drained (serve.ErrClosed).
	CodeClosed = "closed"
	// CodeCorrupt: a page failed its checksum and no clean replica
	// remained (gridfile CorruptError).
	CodeCorrupt = "corrupt"
	// CodeDeadline: the query ran past its deadline on the node.
	CodeDeadline = "deadline"
	// CodeCanceled: the client went away mid-query.
	CodeCanceled = "canceled"
	// CodePartial: some sub-rectangles of the query are uncovered
	// (*PartialError — router-side only, but given a code so nested
	// routers could forward it).
	CodePartial = "partial"
	// CodeNotHosted: the node was asked for a rectangle outside the
	// shards it hosts — a routing bug or a stale shard map.
	CodeNotHosted = "not_hosted"
	// CodeStaleEpoch: the request was stamped with a shard-map epoch the
	// node no longer (or does not yet) serve; the error envelope carries
	// the node's current map so the caller can adopt it and retry.
	CodeStaleEpoch = "stale_epoch"
	// CodeBadRequest: malformed request (bad rect, bad JSON, a migration
	// or rebuild page carrying a record of another bucket).
	CodeBadRequest = "bad_request"
	// CodeInternal: anything else.
	CodeInternal = "internal"
)

// ErrPartial marks a degraded scatter/gather answer: every *PartialError
// satisfies errors.Is(err, ErrPartial). Callers that can live with
// partial coverage match this sentinel and keep the records; callers
// that cannot treat it as failure.
var ErrPartial = errors.New("cluster: partial result")

// ErrNotHosted is returned by a node asked for a rectangle outside its
// hosted shards.
var ErrNotHosted = errors.New("cluster: rect not hosted by this node")

// ErrBadRequest marks a request the node refused as malformed: every
// badRequestError, and every bad_request decoded off the wire, matches
// it. The copier reads it as its donor's fault and tries the next donor.
var ErrBadRequest = errors.New("cluster: bad request")

// ErrStaleEpoch marks a request stamped with a shard-map epoch the node
// does not serve: every *StaleEpochError satisfies
// errors.Is(err, ErrStaleEpoch). The router catches it, adopts the
// attached map when strictly newer, and retries.
var ErrStaleEpoch = errors.New("cluster: stale shard-map epoch")

// StaleEpochError is the gossip vehicle of the epoch protocol: it names
// the epoch the caller used, the node's current epoch, and — when it
// crossed the wire — the node's current map, ready for adoption.
type StaleEpochError struct {
	// RequestEpoch is the epoch the rejected request carried.
	RequestEpoch uint64
	// NodeEpoch is the node's current epoch.
	NodeEpoch uint64
	// Map is the node's current shard map (nil only if reconstruction
	// from the wire spec failed).
	Map *ShardMap
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("cluster: stale shard-map epoch %d (node at %d)", e.RequestEpoch, e.NodeEpoch)
}

// Is makes errors.Is(err, ErrStaleEpoch) true for every StaleEpochError.
func (e *StaleEpochError) Is(target error) bool { return target == ErrStaleEpoch }

// PartialError reports exactly which pieces of a query went unanswered
// after every replica of their shards was exhausted. The records that
// *were* gathered accompany the error in Result; Uncovered are the
// sub-rectangles whose shards produced nothing.
type PartialError struct {
	// Uncovered holds the query sub-rectangles with no answer, in
	// shard order.
	Uncovered []grid.Rect
	// Shards lists the shard IDs that went unanswered, ascending.
	Shards []int
	// Cause is the first sub-query failure behind the gaps (not
	// serialized over the wire; local diagnosis only).
	Cause error
}

func (e *PartialError) Error() string {
	rects := make([]string, len(e.Uncovered))
	for i, r := range e.Uncovered {
		rects[i] = r.String()
	}
	msg := fmt.Sprintf("cluster: partial result: %d uncovered sub-rects (shards %v): %s",
		len(e.Uncovered), e.Shards, strings.Join(rects, " "))
	if e.Cause != nil {
		msg += fmt.Sprintf(" (first cause: %v)", e.Cause)
	}
	return msg
}

// Is makes errors.Is(err, ErrPartial) true for every PartialError.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// newPartialError builds a PartialError from the unanswered sub-queries,
// sorted by shard for deterministic output.
func newPartialError(missed []SubQuery, cause error) *PartialError {
	sort.Slice(missed, func(i, j int) bool { return missed[i].Shard < missed[j].Shard })
	e := &PartialError{Cause: cause}
	for _, sq := range missed {
		e.Uncovered = append(e.Uncovered, sq.Rect)
		e.Shards = append(e.Shards, sq.Shard)
	}
	return e
}

// badRequestError forces CodeBadRequest for malformed inputs.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// Is makes errors.Is(err, ErrBadRequest) true for every badRequestError.
func (e badRequestError) Is(target error) bool { return target == ErrBadRequest }

// errorRow is one code of the wire taxonomy: the sentinel errors.Is
// matches it by (nil for internal: what matches no other row), the HTTP
// status a node answers it with, and whether the error proves the node
// answered — shedding, draining, its own unavailability, a refused
// request — and so must not count against its breaker. Silence (a
// deadline), transport failures and errors the node cannot name do.
type errorRow struct {
	code     string
	sentinel error
	status   int
	answered bool
}

// errorCodes is the taxonomy, in match order: an error takes the code of
// the first row whose sentinel it matches, internal when none does. The
// statuses let generic HTTP clients degrade sensibly (429 means back
// off, 503 means try a replica) while the code stays the source of
// truth for typed decoding.
var errorCodes = []errorRow{
	{CodeBadRequest, ErrBadRequest, http.StatusBadRequest, true},
	{CodeUnavailable, fault.ErrUnavailable, http.StatusServiceUnavailable, true},
	{CodeOverloaded, serve.ErrOverloaded, http.StatusTooManyRequests, true},
	{CodeClosed, serve.ErrClosed, http.StatusServiceUnavailable, true},
	{CodeCorrupt, gridfile.ErrCorrupt, http.StatusInternalServerError, true},
	{CodeDeadline, context.DeadlineExceeded, http.StatusGatewayTimeout, false},
	{CodeCanceled, context.Canceled, 499, false}, // the client went away: nginx's 499
	{CodePartial, ErrPartial, http.StatusPartialContent, true},
	{CodeNotHosted, ErrNotHosted, http.StatusMisdirectedRequest, true},
	{CodeStaleEpoch, ErrStaleEpoch, http.StatusConflict, true}, // a version conflict
	{CodeInternal, nil, http.StatusInternalServerError, false},
}

// ErrorCode maps an error to its stable wire code.
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	for _, row := range errorCodes {
		if errors.Is(err, row.sentinel) {
			return row.code
		}
	}
	return CodeInternal
}

// codeRow returns the row of a wire code, internal's for an unknown one.
func codeRow(code string) errorRow {
	i := slices.IndexFunc(errorCodes, func(row errorRow) bool { return row.code == code })
	if i < 0 {
		i = len(errorCodes) - 1
	}
	return errorCodes[i]
}

// HTTPStatus maps a wire code to the HTTP status a node responds with.
func HTTPStatus(code string) int { return codeRow(code).status }

// DecodeError turns a wire (code, message) pair back into a typed
// error: the sentinel for the code wrapped with the remote message, so
// errors.Is on the decoded error matches exactly what matched on the
// node. Internal and unknown codes decode to a plain error. A bare
// stale_epoch decodes to the sentinel alone; the full envelope path
// (decodeErrorBody) rebuilds the *StaleEpochError with the node's map.
func DecodeError(code, msg string) error {
	row := codeRow(code)
	switch {
	case code == "":
		return nil
	case row.sentinel == nil:
		return fmt.Errorf("cluster: remote error %q: %s", code, msg)
	case msg == "":
		return row.sentinel
	}
	return &wireError{code: code, msg: msg, sentinel: row.sentinel}
}

// breakerCountable classifies an attempt or donor-fetch error for node
// health: it counts unless it matches a sentinel the node answers with.
// This is what lets a healed partition recover promptly: during the
// partition only timeouts counted, so the breaker opens, and the first
// successful half-open probe after heal closes it — while a node merely
// shedding load never opens at all.
func breakerCountable(err error) bool {
	if err == nil {
		return false
	}
	for _, row := range errorCodes {
		if row.answered && errors.Is(err, row.sentinel) {
			return false
		}
	}
	return true
}

// wireError carries a remote error message while delegating identity to
// the decoded sentinel.
type wireError struct {
	code     string
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return fmt.Sprintf("cluster: remote %s: %s", e.code, e.msg) }

// Unwrap exposes the sentinel so errors.Is sees through the wrapper.
func (e *wireError) Unwrap() error { return e.sentinel }
