package service

import (
	"context"
	"errors"
	"sync"

	"webslice/internal/cdg"
	"webslice/internal/obs"
	"webslice/internal/trace"
)

// obtainFunc renders or decodes the trace of a job's spec. free, when
// non-nil, runs once no job holds the trace any more.
type obtainFunc func(spec Spec) (t *trace.Trace, free func(), err error)

// traceShares hands every job of one JobKey in flight together one trace
// and its forward pass. The first job of a key obtains the trace; a job of
// that key that starts while a holder is still running waits for the same
// trace instead of rendering or decoding its own; the last holder to release
// it deletes the key and frees it. So no trace outlives its jobs, and the
// traces a daemon holds are the distinct ones in flight, not one per job.
type traceShares struct {
	obtain obtainFunc // the manager's obtainTrace; tests substitute a fake

	mu sync.Mutex
	m  map[string]*traceShare
}

// A traceShare is one trace and the count of jobs holding it.
type traceShare struct {
	// ready is closed once the obtain step has returned or panicked. The
	// fields below it are written before, and only read after.
	ready chan struct{}
	t     *trace.Trace
	free  func()
	err   error // the obtain step's error, which every holder gets
	// abandoned means the obtain step panicked: its waiters acquire afresh
	// rather than inherit another job's panic.
	abandoned bool

	// fwd guards deps, the forward pass of t. The first holder to take fwd
	// loads the pass from the store or computes it and keeps it here, and
	// every later holder takes it from here, with or without a store. A
	// failed or canceled pass leaves deps nil, and the next holder tries
	// again.
	fwd  sync.Mutex
	deps *cdg.Deps

	holders int // guarded by traceShares.mu
}

// errObtainerPanicked ends a waiter's span when the job obtaining the trace
// panicked; the waiter then acquires afresh.
var errObtainerPanicked = errors.New("service: the job obtaining this trace panicked")

func newTraceShares(obtain obtainFunc) *traceShares {
	return &traceShares{obtain: obtain, m: make(map[string]*traceShare)}
}

// acquire returns the share of the trace whose JobKey is key, obtaining the
// trace unless a holder of key is in flight. It records the obtain step, or
// the wait for another job's (with shared=true), as a span named name under
// parent. An obtain error reaches every holder; a waiter whose context ends
// first returns ErrCanceled. A panic in the obtain step propagates in the
// job that obtained only. The caller releases a returned share once it no
// longer reads the trace.
func (s *traceShares) acquire(ctx context.Context, parent *obs.Span, name, key string, spec Spec) (*traceShare, error) {
	for {
		s.mu.Lock()
		sh, waiting := s.m[key]
		if !waiting {
			sh = &traceShare{ready: make(chan struct{})}
			s.m[key] = sh
		}
		sh.holders++
		s.mu.Unlock()

		sp := parent.Child(name)
		if !waiting {
			s.fill(sh, sp, key, spec)
		} else {
			sp.Set("shared", "true")
			select {
			case <-sh.ready:
			case <-ctx.Done():
				sp.EndErr(ErrCanceled)
				s.release(key, sh)
				return nil, ErrCanceled
			}
			if sh.abandoned {
				sp.EndErr(errObtainerPanicked)
				s.release(key, sh)
				continue
			}
		}
		sp.EndErr(sh.err)
		if sh.err != nil {
			s.release(key, sh)
			return nil, sh.err
		}
		return sh, nil
	}
}

// fill runs the obtain step for a new share. If it panics, the share is
// abandoned: its key is deleted, so later jobs start afresh, and its
// waiters are woken to acquire again. The panic goes on up the obtaining
// job's stack.
func (s *traceShares) fill(sh *traceShare, sp *obs.Span, key string, spec Spec) {
	returned := false
	defer func() {
		if !returned {
			sp.EndErr(errObtainerPanicked)
			s.mu.Lock()
			sh.abandoned = true
			if s.m[key] == sh {
				delete(s.m, key)
			}
			sh.holders--
			s.mu.Unlock()
		}
		close(sh.ready)
	}()
	sh.t, sh.free, sh.err = s.obtain(spec)
	returned = true
}

// release drops one holder of a share. The last one deletes its key, unless
// a newer share already took it, and frees the trace.
func (s *traceShares) release(key string, sh *traceShare) {
	s.mu.Lock()
	sh.holders--
	last := sh.holders == 0
	if last && s.m[key] == sh {
		delete(s.m, key)
	}
	s.mu.Unlock()
	if last && sh.free != nil {
		sh.free()
	}
}
