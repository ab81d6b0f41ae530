package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// jsonReference is the registry's JSON document as Registry.WriteJSON
// wrote it before the registry wrote its own: the indented encoding/json
// form of its snapshot and a newline.
func jsonReference(r *Registry) ([]byte, error) {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// checkJSON holds the registry's document to the reference: the same
// bytes in an exactly sized slice, or an error on both sides.
func checkJSON(t *testing.T, r *Registry) (failed bool) {
	t.Helper()
	want, werr := jsonReference(r)
	got, err := r.JSON()
	if (err == nil) != (werr == nil) {
		t.Fatalf("JSON err = %v, the reference's = %v", err, werr)
	}
	if err != nil {
		return true
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("documents differ at byte %d of %d/%d:\n got %q\nwant %q", i, len(got), len(want), got[i:], want[i:])
	}
	if cap(got) != len(got) {
		t.Fatalf("document has capacity %d for %d bytes, want it exactly sized", cap(got), len(got))
	}
	// Appended after a prefix, into a buffer short of room and into one
	// with room to spare: the prefix and then the same bytes.
	for _, dst := range [][]byte{[]byte("prefix"), append(make([]byte, 0, 6+len(want)+3), "prefix"...)} {
		got, err := r.AppendJSON(dst)
		if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("AppendJSON after a %d-byte prefix with room %d: %q, %v", len(dst), cap(dst)-len(dst), got, err)
		}
	}
	return false
}

// registryStrings are the names, help texts, label names and label
// values the generator draws from: what encoding/json escapes (quotes,
// backslashes, control bytes, <, > and &, U+2028 and U+2029, invalid
// UTF-8) and the byte the registry joins label values with.
var registryStrings = []string{
	"", "a", "b", "k", "dyflow_x_total", "zz", "é✓", `<a href="x">&amp;</a>`, `"\`,
	"\x00\x01\x1f\b\f\n\r\t\x7f", "\u2028 \u2029", "\xff\xfe", "x\xffy", "\xe2\x80", "\U0001F600",
}

// registryFloats are the values the generator sets and observes: zero and
// -0, which omitempty drops, and each side of encoding/json's 'e' format
// bounds (1e-6, 1e21).
var registryFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.99999e-7, 1e-7, 5e-324, 1e20, 1e21, -1e21,
	123456789.125, math.MaxFloat64, 1e-300, 3e-10,
}

// genRegistry draws a registry from rng: counters, gauges and histograms
// with 0–3 labels declared out of name order (now and then one name
// twice), families with no series, and values from pool. With nan set,
// some gauge or histogram may hold a NaN.
func genRegistry(rng *rand.Rand, strs []string, floats []float64, nan bool) *Registry {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	value := func() float64 {
		if nan && rng.Intn(20) == 0 {
			return math.NaN()
		}
		return floats[rng.Intn(len(floats))]
	}
	r := NewRegistry()
	registered := map[string]bool{}
	for i, nfam := 0, rng.Intn(7); i < nfam; i++ {
		name := pick(strs)
		if registered[name] {
			continue // a name re-registered with another type or arity panics
		}
		registered[name] = true
		labels := make([]string, rng.Intn(4))
		for j := range labels {
			labels[j] = pick(strs)
		}
		help := ""
		if rng.Intn(3) > 0 {
			help = pick(strs)
		}
		values := func() []string {
			vs := make([]string, len(labels))
			for j := range vs {
				vs[j] = pick(strs)
			}
			return vs
		}
		nseries := rng.Intn(4)
		switch rng.Intn(3) {
		case 0:
			vec := r.Counter(name, help, labels...)
			for j := 0; j < nseries; j++ {
				vec.With(values()...).Add([]int64{0, 1, 7, 1 << 53, math.MaxInt64}[rng.Intn(5)])
			}
		case 1:
			vec := r.Gauge(name, help, labels...)
			for j := 0; j < nseries; j++ {
				vec.With(values()...).Set(value())
			}
		default:
			var bounds []float64
			if rng.Intn(4) > 0 {
				for j, n := 0, 1+rng.Intn(4); j < n; j++ {
					bounds = append(bounds, floats[rng.Intn(len(floats))])
				}
				sort.Float64s(bounds)
			}
			vec := r.Histogram(name, help, bounds, labels...)
			for j := 0; j < nseries; j++ {
				h := vec.With(values()...)
				for k, n := 0, rng.Intn(4); k < n; k++ {
					h.Observe(value())
				}
			}
		}
	}
	return r
}

// TestProperty_RegistryJSON_EqualsMarshalIndent: over seeded registries —
// every metric type, labels out of order, empty families, zero and -0
// values, floats on each side of the exponent bounds, and names, help and
// labels that need escaping — JSON writes the reference's bytes into an
// exactly sized slice, and a registry holding a NaN fails on both sides.
func TestProperty_RegistryJSON_EqualsMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var failed, empty int
	for i := 0; i < 2000; i++ {
		r := genRegistry(rng, registryStrings, registryFloats, i%4 == 0)
		if checkJSON(t, r) {
			failed++
		}
		if len(r.Snapshot().Metrics) == 0 {
			empty++
		}
	}
	if failed < 20 || empty < 20 {
		t.Fatalf("generator coverage: %d registries with a NaN, %d empty", failed, empty)
	}

	// NaN and the infinities, as a gauge, a histogram's sum and max and a
	// bucket bound.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, fill := range []func(*Registry){
			func(r *Registry) { r.Gauge("g", "").With().Set(v) },
			func(r *Registry) { r.Histogram("h", "", nil).With().Observe(v) },
			func(r *Registry) { r.Histogram("h", "", []float64{v}).With() },
		} {
			r := NewRegistry()
			fill(r)
			if !checkJSON(t, r) {
				t.Fatalf("a registry holding %v encodes", v)
			}
		}
	}
}

// FuzzRegistryJSON: a registry drawn from any seed, with any string among
// its names, help texts and labels and any float among its values, writes
// the reference's bytes, or fails where the reference fails.
func FuzzRegistryJSON(f *testing.F) {
	f.Add(int64(1), "<&>", "\u2028", 1e-7)
	f.Add(int64(2), "\xff", "\"\\\x00", 1e21)
	f.Add(int64(3), "", "a", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed int64, s1, s2 string, v float64) {
		strs := append([]string{s1, s2}, registryStrings[:4]...)
		floats := append([]float64{v, v / 3}, registryFloats[:4]...)
		checkJSON(t, genRegistry(rand.New(rand.NewSource(seed)), strs, floats, false))
	})
}

// TestJSONHandlerRefusesNaN: a registry the writer cannot encode is a 500
// with the error's text, not a 200 with an empty body.
func TestJSONHandlerRefusesNaN(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("dyflow_broken", "").With().Set(math.NaN())
	srv := httptest.NewServer(JSONHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "NaN") {
		t.Fatalf("status %d, body %q: want 500 naming the NaN", resp.StatusCode, body)
	}
}
