// Network fault injection: a deterministic, seeded plan of per-resource
// faults (dropped requests, connection resets mid-body, truncated bodies,
// latency spikes, 5xx responses) that the Loader consults on every attempt.
// Real browsers spend substantial work on exactly these paths — work that is
// largely invisible to the pixel slice — so the plan is the workload knob
// behind the faults experiment's error-path waste characterization.
package net

// FaultKind enumerates the injectable network faults.
type FaultKind uint8

const (
	// FaultNone delivers the response normally.
	FaultNone FaultKind = iota
	// FaultDrop swallows the request: no response ever arrives and the
	// client's per-request timeout fires.
	FaultDrop
	// FaultReset resets the connection mid-body: the first half of the
	// response streams in, then the socket read fails.
	FaultReset
	// FaultTruncate delivers a short body; the content-length check fails.
	FaultTruncate
	// FaultSlow adds ExtraLatencyMs to the response latency (a spike, not a
	// failure — unless it pushes the response past the timeout).
	FaultSlow
	// Fault5xx answers with an HTTP 503 and no body.
	Fault5xx
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultSlow:
		return "slow"
	case Fault5xx:
		return "5xx"
	default:
		return "fault?"
	}
}

// Fault is one resource's injected failure mode.
type Fault struct {
	Kind FaultKind
	// Times is how many attempts the fault affects: n > 0 fails the first n
	// attempts (a transient fault that a retry survives), n < 0 fails every
	// attempt (a permanent fault the engine must degrade around).
	Times int
	// ExtraLatencyMs is the added delay for FaultSlow.
	ExtraLatencyMs int
}

// active reports whether the fault applies to the given 1-based attempt.
func (f Fault) active(attempt int) bool {
	if f.Kind == FaultNone {
		return false
	}
	return f.Times < 0 || attempt <= f.Times
}

// FaultPlan maps resource URLs to injected faults. The zero-value plan (or a
// nil plan on the Loader) injects nothing. Seed feeds the loader's backoff
// jitter so a whole faulty run is reproducible from one number.
type FaultPlan struct {
	Seed  uint64
	byURL map[string]Fault
}

// NewFaultPlan returns an empty plan with the given jitter seed.
func NewFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{Seed: seed, byURL: make(map[string]Fault)}
}

// Set injects a fault for a URL (replacing any previous one).
func (p *FaultPlan) Set(url string, f Fault) {
	if p.byURL == nil {
		p.byURL = make(map[string]Fault)
	}
	p.byURL[url] = f
}

// Get returns the fault planned for a URL, if any.
func (p *FaultPlan) Get(url string) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	f, ok := p.byURL[url]
	return f, ok
}

// RetryPolicy is the client's fault-handling configuration: bounded retries
// with exponential backoff plus deterministic jitter, and a per-attempt
// timeout on the scheduler's virtual clock.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per resource (first try
	// included). 1 disables retries.
	MaxAttempts int
	// TimeoutMs is the per-attempt timeout; 0 disables timeouts (and with
	// them any recovery from FaultDrop).
	TimeoutMs int
	// BackoffBaseMs is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMaxMs.
	BackoffBaseMs int
	BackoffMaxMs  int
	// JitterPct adds 0..JitterPct percent of the backoff, drawn from the
	// loader's seeded generator.
	JitterPct int
}

// DefaultRetryPolicy mirrors typical browser resource-fetch behavior: three
// attempts, 2 s timeout, 150 ms base backoff doubling to at most 1.2 s, 25%
// jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, TimeoutMs: 2000, BackoffBaseMs: 150, BackoffMaxMs: 1200, JitterPct: 25}
}

// BackoffMs returns the deterministic backoff before retrying after the
// given failed 1-based attempt, mixing in jitter from the rng word.
func (p RetryPolicy) BackoffMs(attempt int, rnd uint64) int {
	d := p.BackoffBaseMs
	for i := 1; i < attempt && d < p.BackoffMaxMs; i++ {
		d *= 2
	}
	if p.BackoffMaxMs > 0 && d > p.BackoffMaxMs {
		d = p.BackoffMaxMs
	}
	if p.JitterPct > 0 && d > 0 {
		d += d * int(rnd%uint64(p.JitterPct+1)) / 100
	}
	return d
}

// splitmix64 is the deterministic generator behind backoff jitter (and the
// sites' fault-profile choices): one 64-bit state word, full period.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// HashURL folds a URL into a 64-bit word (FNV-1a), used to derive
// per-resource randomness from a plan seed.
func HashURL(url string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= 0x100000001B3
	}
	return h
}
