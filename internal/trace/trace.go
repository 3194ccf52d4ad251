// Package trace is optd's distributed-tracing substrate: W3C-style
// traceparent propagation, span fragments recorded per locally-rooted unit
// of work (an HTTP request, a job attempt), and a bounded per-node store
// fed by a tail-based sampler (store.go).
//
// It complements internal/obs rather than replacing it: obs.Tracer builds
// the single-request inline span forest returned by ?trace=1, while this
// package mints cluster-wide identities — a trace ID shared across one-hop
// forwards, job WAL records and advisor replay sweeps — and retains a
// queryable sample of completed traces on every node. The propagation
// format is the W3C traceparent header,
//
//	00-<32 hex trace id>-<16 hex parent span id>-01
//
// carried on forwarded requests and stored in job records.
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
)

// TraceparentHeader is the propagation header name. Lowercase per the W3C
// Trace Context spec; Go's http.Header canonicalizes it either way.
const TraceparentHeader = "Traceparent"

// SpanContext is the propagated identity pair: which trace a unit of work
// belongs to and which span is its parent.
type SpanContext struct {
	TraceID string // 32 lowercase hex digits, not all zero
	SpanID  string // 16 lowercase hex digits, not all zero
}

// Valid reports whether both IDs have the required shape.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID, 32) && isHexID(sc.SpanID, 16)
}

// Traceparent renders the context in W3C traceparent form. The flags octet
// is always 01 (sampled): the keep decision is made at the tail, not the
// head, so every propagated context is a candidate.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte (per spec, an unknown version is parsed as version 00) and
// ignores the flags octet. ok is false for malformed or all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	s = strings.TrimSpace(s)
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	if len(parts[0]) != 2 || !isHex(parts[0]) || parts[0] == "ff" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// NewTraceID mints a 128-bit trace ID. IDs need cluster-wide uniqueness,
// not unpredictability, so the fast math/rand/v2 generator is deliberate —
// ingress minting sits on the request hot path.
func NewTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), nonZero(rand.Uint64()))
}

// NewSpanID mints a 64-bit span ID.
func NewSpanID() string {
	return fmt.Sprintf("%016x", nonZero(rand.Uint64()))
}

// nonZero keeps minted IDs out of the all-zero form the spec reserves for
// "no id".
func nonZero(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

func isHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	return strings.Trim(s, "0") != ""
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

type ctxKey int

const (
	fragmentKey ctxKey = iota
	spanKey
	requestIDKey
)

// ContextWithFragment installs a fragment and its current span (usually the
// root) into ctx; child spans started through Start attach under it.
func ContextWithFragment(ctx context.Context, f *Fragment, current *Span) context.Context {
	ctx = context.WithValue(ctx, fragmentKey, f)
	return context.WithValue(ctx, spanKey, current)
}

// FragmentFrom returns the fragment carried by ctx, or nil.
func FragmentFrom(ctx context.Context) *Fragment {
	f, _ := ctx.Value(fragmentKey).(*Fragment)
	return f
}

// SpanFrom returns the current span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a child span under ctx's current span and returns it plus a
// derived context in which it is current. With no fragment in ctx it
// returns a nil span (whose methods are no-ops) and ctx unchanged, so
// instrumented call sites cost nothing on untraced paths.
func Start(ctx context.Context, name string) (*Span, context.Context) {
	f := FragmentFrom(ctx)
	if f == nil {
		return nil, ctx
	}
	sp := f.StartSpan(SpanFrom(ctx), name)
	return sp, context.WithValue(ctx, spanKey, sp)
}

// Traceparent renders ctx's current span context for outbound propagation
// (forward hops, job records, subprocess env); "" when ctx is untraced.
func Traceparent(ctx context.Context) string {
	sp := SpanFrom(ctx)
	if sp == nil {
		return ""
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID}.Traceparent()
}

// ContextWithRequestID carries the ingress-assigned request ID so outbound
// hops (forwards, replay submissions) reuse it instead of letting the next
// node mint a fresh one.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the propagated request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
