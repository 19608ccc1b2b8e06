package obs

import (
	"context"
	"net/http"
	"strings"
)

// Header is the propagation header name, per the W3C Trace Context spec.
const Header = "traceparent"

// Traceparent renders a context as a W3C traceparent value:
// version "00", 32-hex trace ID, 16-hex span ID, flags "01" (sampled).
func Traceparent(sc SpanContext) string {
	return "00-" + sc.Trace + "-" + sc.Span + "-01"
}

// ParseTraceparent parses a traceparent value. It accepts any version
// (per spec, unknown versions are parsed as version 00 if the tail fits)
// and rejects malformed or all-zero IDs.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(v, "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver, tr, sp := parts[0], parts[1], parts[2]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" {
		return SpanContext{}, false
	}
	if len(tr) != 32 || !isHex(tr) || tr == strings.Repeat("0", 32) {
		return SpanContext{}, false
	}
	if len(sp) != 16 || !isHex(sp) || sp == strings.Repeat("0", 16) {
		return SpanContext{}, false
	}
	return SpanContext{Trace: tr, Span: sp}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// InjectContext writes a SpanContext (a span's, or one carried on a job
// spec) into an outgoing header set; an invalid context, such as a nil
// span's, injects nothing.
func InjectContext(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(Header, Traceparent(sc))
}

// Extract reads the propagated context from incoming headers.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(Header)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceparent(v)
}

type ctxKey struct{}

// ContextWith returns ctx carrying the span (nil span returns ctx as-is).
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
