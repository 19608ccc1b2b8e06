package service

import "time"

// Clock abstracts time so the cluster's health-probe schedule and the
// webslice client's poll and backoff loops are testable without real
// sleeps (see the fake clocks in their tests).
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until stop closes, whichever comes first.
	Sleep(d time.Duration, stop <-chan struct{})
}

// SystemClock is the production Clock, shared by everything that wants
// injectable time (the cluster's health probes, the client's poll loop).
var SystemClock Clock = realClock{}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(d time.Duration, stop <-chan struct{}) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}
