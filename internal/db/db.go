// Package db models the in-cluster database service the paper lists as one
// of the Monitor stage's source media ("the desired data ... is available
// through a database service, a streaming service, or files"). Workflow
// tasks publish per-step records under string keys; the DB source type
// polls the latest record per key.
package db

import "dyflow/internal/sim"

// Record is one published data point.
type Record struct {
	// Step is the producer's timestep.
	Step int
	// Value is the published numeric value.
	Value float64
	// At is the publish time (the sensor's generation timestamp).
	At sim.Time
}

// Service is a key/value store on the simulation clock holding each key's
// latest record.
type Service struct {
	sim    *sim.Sim
	latest map[string]Record
}

// New creates an empty service.
func New(s *sim.Sim) *Service {
	return &Service{sim: s, latest: make(map[string]Record)}
}

// Put records value under key, stamped with the current virtual time.
func (svc *Service) Put(key string, step int, value float64) {
	svc.latest[key] = Record{Step: step, Value: value, At: svc.sim.Now()}
}

// Latest returns the newest record for key.
func (svc *Service) Latest(key string) (Record, bool) {
	rec, ok := svc.latest[key]
	return rec, ok
}
