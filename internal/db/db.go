// Package db models the in-cluster database service the paper lists as one
// of the Monitor stage's source media ("the desired data ... is available
// through a database service, a streaming service, or files"). Workflow
// tasks publish per-step records under string keys; the DB source type
// polls the latest record per key.
package db

import (
	"sort"

	"dyflow/internal/sim"
)

// Record is one published data point.
type Record struct {
	// Step is the producer's timestep.
	Step int
	// Value is the published numeric value.
	Value float64
	// At is the publish time (the sensor's generation timestamp).
	At sim.Time
}

// Service is a key/value time-series store on the simulation clock. Writes
// are in-memory appends; reads return the latest record or a bounded
// history window.
type Service struct {
	sim     *sim.Sim
	series  map[string][]Record
	queries int
	writes  int
}

// keep is how many records the service holds per key.
const keep = 256

// New creates a service keeping at most keep records per key.
func New(s *sim.Sim) *Service {
	return &Service{sim: s, series: make(map[string][]Record)}
}

// Put appends a record under key, stamped with the current virtual time.
func (svc *Service) Put(key string, step int, value float64) {
	svc.writes++
	recs := append(svc.series[key], Record{Step: step, Value: value, At: svc.sim.Now()})
	if len(recs) > keep {
		recs = recs[len(recs)-keep:]
	}
	svc.series[key] = recs
}

// Latest returns the newest record for key.
func (svc *Service) Latest(key string) (Record, bool) {
	svc.queries++
	recs := svc.series[key]
	if len(recs) == 0 {
		return Record{}, false
	}
	return recs[len(recs)-1], true
}

// Since returns the records for key with Step > afterStep, oldest first.
func (svc *Service) Since(key string, afterStep int) []Record {
	svc.queries++
	recs := svc.series[key]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Step > afterStep })
	out := make([]Record, len(recs)-i)
	copy(out, recs[i:])
	return out
}

// Stats reports lifetime write and query counts.
func (svc *Service) Stats() (writes, queries int) { return svc.writes, svc.queries }
