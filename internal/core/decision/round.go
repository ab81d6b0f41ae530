package decision

import (
	"math"

	"dyflow/internal/msg"
)

// Round is one evaluation round's suggestions on the Decision →
// Arbitration link, sent as a *Round and recycled through msg.Lease; its
// encoded form is a list of SuggestionRecord. A round rides in one
// envelope: its taker holds it until it sends it, and the Arbiter
// releases it once it has copied the suggestions.
type Round struct {
	Sugs  []Suggestion
	lease msg.Lease[Round]
}

// TakeRound returns a round off free, or a new one whose home is free,
// held by the caller: it sends the round or releases it.
func TakeRound(free *[]*Round) *Round {
	r := msg.Take(free)
	if r == nil {
		r = &Round{lease: msg.NewLease(free)}
	}
	r.Sugs = r.Sugs[:0]
	r.lease.Hold()
	return r
}

// Release hands the round back to its sender: its holder is done with
// it. A round sent home is poisoned, so a read after release shows: its
// suggestions name no rule and hold NaN. A round with no home — restored
// from a checkpoint, or built by hand — is never recycled, and releasing
// it does nothing.
func (r *Round) Release() {
	r.lease.Release()
	if !r.lease.Home(r) {
		return
	}
	for i := range r.Sugs {
		r.Sugs[i] = Suggestion{MetricValue: math.NaN()}
	}
}
