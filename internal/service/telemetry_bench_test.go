package service

import (
	"testing"
	"time"

	"webslice/internal/obs"
	"webslice/internal/store"
)

// The span-overhead acceptance gate, measured end to end: the same
// render+slice job with the tracer absent (the default) and with a live
// span ring. Tracing hangs off pass boundaries, never the slicer's hot
// loop, so the pair should land within a few percent of each other:
//
//	go test -run - -bench BenchmarkJobTracing ./internal/service/
//
// Each iteration submits a fresh property-site seed so the artifact
// store never short-circuits the slice with a cache hit.
func benchmarkJob(b *testing.B, tracer *obs.Tracer) {
	st, err := store.Open("", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st, Tracer: tracer})
	defer m.Kill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := m.Submit(Spec{Seed: uint64(i) + 1, Scale: 0.05, Criteria: "pixels"})
		if err != nil {
			b.Fatal(err)
		}
		for {
			info, err := m.Info(id)
			if err != nil {
				b.Fatalf("job %s disappeared: %v", id, err)
			}
			if info.Status.Terminal() {
				if info.Status != StatusDone {
					b.Fatalf("job %s: %s (%s)", id, info.Status, info.Error)
				}
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func BenchmarkJobTracingOff(b *testing.B) { benchmarkJob(b, nil) }

func BenchmarkJobTracingOn(b *testing.B) { benchmarkJob(b, obs.New(4096, nil)) }
