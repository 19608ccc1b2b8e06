package obs

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: "4bf92f3577b34da6a3ce929d0e0e4736", Span: "00f067aa0ba902b7"}
	v := Traceparent(sc)
	if v != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("traceparent = %q", v)
	}
	got, ok := ParseTraceparent(v)
	if !ok || got != sc {
		t.Fatalf("round trip = %+v, ok=%t", got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // no flags
		"00-short-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-short-01",
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex version
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex trace
		"xx yy",
	}
	for _, v := range bad {
		if sc, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", v, sc)
		}
	}
}

func TestParseTraceparentAcceptsFutureVersionsAndTails(t *testing.T) {
	// Per W3C, an unknown (non-ff) version with a longer tail still parses.
	v := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	sc, ok := ParseTraceparent(v)
	if !ok || sc.Trace != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("future version rejected: %+v ok=%t", sc, ok)
	}
}

func TestInjectExtractHeaders(t *testing.T) {
	tr := New(16, nil)
	s := tr.Root("route")
	h := http.Header{}
	InjectContext(h, s.Context())
	sc, ok := Extract(h)
	if !ok || sc != s.Context() {
		t.Fatalf("extract = %+v ok=%t, want %+v", sc, ok, s.Context())
	}
	if _, ok := Extract(http.Header{}); ok {
		t.Fatal("extract from empty headers succeeded")
	}
	h2 := http.Header{}
	InjectContext(h2, SpanContext{})
	if len(h2) != 0 {
		t.Fatal("invalid context injected a header")
	}
	InjectContext(h2, sc)
	if got, ok := Extract(h2); !ok || got != sc {
		t.Fatalf("InjectContext round trip = %+v ok=%t", got, ok)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	tr := New(16, nil)
	s := tr.Root("job")
	ctx := ContextWith(context.Background(), s)
	if FromContext(ctx) != s {
		t.Fatal("span lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
	if got := ContextWith(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("nil span stored in context")
	}
}
