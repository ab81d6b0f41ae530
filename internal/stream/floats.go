package stream

import (
	"encoding/json"
	"fmt"
	"math"
)

// A staged record's values are raw: NaN and ±Inf are legal until a sensor
// sanitizes them, and JSON has no number for them. Floats encodes them
// as the strings "NaN", "+Inf" and "-Inf", so a checkpoint holding a
// buffered record with one still encodes; finite values encode exactly as
// a []float64 does.

// Floats is a []float64 whose JSON form holds any float64.
type Floats []float64

// MarshalJSON implements json.Marshaler.
func (f Floats) MarshalJSON() ([]byte, error) {
	if f == nil {
		return []byte("null"), nil
	}
	out := []byte{'['}
	for i, v := range f {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = appendFloat(out, v); err != nil {
			return nil, err
		}
	}
	return append(out, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(data []byte) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(data, &elems); err != nil {
		return err
	}
	if elems == nil {
		*f = nil
		return nil
	}
	out := make(Floats, len(elems))
	for i, e := range elems {
		var err error
		if out[i], err = parseFloat(e); err != nil {
			return err
		}
	}
	*f = out
	return nil
}

// appendFloat appends v's JSON form to out.
func appendFloat(out []byte, v float64) ([]byte, error) {
	switch {
	case math.IsNaN(v):
		return append(out, `"NaN"`...), nil
	case math.IsInf(v, 1):
		return append(out, `"+Inf"`...), nil
	case math.IsInf(v, -1):
		return append(out, `"-Inf"`...), nil
	}
	b, err := json.Marshal(v)
	return append(out, b...), err
}

// parseFloat reads one value appendFloat wrote.
func parseFloat(e json.RawMessage) (float64, error) {
	if len(e) == 0 || e[0] != '"' {
		var v float64
		err := json.Unmarshal(e, &v)
		return v, err
	}
	switch string(e) {
	case `"NaN"`:
		return math.NaN(), nil
	case `"+Inf"`:
		return math.Inf(1), nil
	case `"-Inf"`:
		return math.Inf(-1), nil
	}
	return 0, fmt.Errorf("stream: value %s is not a number", e)
}
