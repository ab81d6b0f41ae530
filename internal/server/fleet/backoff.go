package fleet

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// backoff produces capped exponential backoff with full jitter (each
// delay is uniform over (0, min(cap, base·2ⁿ)]): retrying workers
// decorrelate instead of stampeding a coordinator that just came back.
// Safe for concurrent use; each call site usually owns one.
type backoff struct {
	base time.Duration // first attempt's ceiling
	max  time.Duration // the cap every ceiling saturates at

	mu   sync.Mutex
	cur  time.Duration // next attempt's ceiling
	rng  *rand.Rand    // built by the first next(): a backoff never needed costs no 5 KB source
	seed int64
}

// newBackoff builds a backoff with the given base and cap, seeded for
// reproducible jitter in tests (seed 0 means seed from the clock).
func newBackoff(base, max time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &backoff{base: base, max: max, cur: base, seed: seed}
}

// next returns this attempt's jittered delay and doubles the ceiling
// (saturating at the cap). The delay is never zero — a zero sleep would
// turn a dead coordinator into a busy loop.
func (b *backoff) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.seed))
	}
	ceiling := b.cur
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
	return 1 + time.Duration(b.rng.Int63n(int64(ceiling)))
}

// reset returns the ceiling to base after a success.
func (b *backoff) reset() {
	b.mu.Lock()
	b.cur = b.base
	b.mu.Unlock()
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the
// full duration elapsed (false = canceled).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
