package obs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON renders the registry as indented JSON and a newline: byte for byte
// what json.MarshalIndent(r.Snapshot(), "", "  ") and a newline would be,
// in a slice of exactly its size. It is AppendJSON(nil).
func (r *Registry) JSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends JSON's document to dst, written straight from the
// families. One pass counts the bytes, a second writes them; when dst
// lacks the room, the document goes into a copy of dst of exactly the size
// the count asks for, so a registry that grows between the passes only
// grows the slice. A NaN or infinite value is an error, as it is to
// encoding/json.
func (r *Registry) AppendJSON(dst []byte) ([]byte, error) {
	size := jsonDoc{count: true}
	if err := r.writeJSON(&size); err != nil {
		return nil, err
	}
	if cap(dst)-len(dst) < size.n {
		dst = append(make([]byte, 0, len(dst)+size.n), dst...)
	}
	doc := jsonDoc{buf: dst}
	if err := r.writeJSON(&doc); err != nil {
		return nil, err
	}
	return doc.buf, nil
}

// jsonDoc is where writeJSON writes: it counts the bytes, or it appends
// them to buf.
type jsonDoc struct {
	count bool
	n     int
	buf   []byte
	num   [32]byte // scratch for a formatted number or escape
}

func (d *jsonDoc) str(s string) {
	if d.count {
		d.n += len(s)
		return
	}
	d.buf = append(d.buf, s...)
}

func (d *jsonDoc) bytes(b []byte) {
	if d.count {
		d.n += len(b)
		return
	}
	d.buf = append(d.buf, b...)
}

// The document's layout: an object's fields and an array's elements each
// on a line of their own, indented two spaces a level.
const indent = "\n              " // a newline and the deepest level's indentation

func (d *jsonDoc) line(depth int) { d.str(indent[:1+2*depth]) }

// field starts the next of an object's fields at depth, its first when
// *n is 0.
func (d *jsonDoc) field(n *int, depth int, name string) {
	if *n > 0 {
		d.str(",")
	}
	*n++
	d.line(depth)
	d.str(`"`)
	d.str(name)
	d.str(`": `)
}

// endObject closes an object whose fields were at depth, {} when it has
// none.
func (d *jsonDoc) endObject(n, depth int) {
	if n > 0 {
		d.line(depth - 1)
	}
	d.str("}")
}

func (r *Registry) writeJSON(d *jsonDoc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.str("{\n  \"metrics\": ")
	if len(r.families) == 0 {
		d.str("null\n}\n")
		return nil
	}
	d.str("[")
	for i, f := range r.families {
		if i > 0 {
			d.str(",")
		}
		d.line(2)
		d.str("{")
		n := 0
		d.field(&n, 3, "name")
		d.string(f.name)
		d.field(&n, 3, "type")
		d.string(string(f.typ))
		if f.help != "" {
			d.field(&n, 3, "help")
			d.string(f.help)
		}
		d.field(&n, 3, "series")
		if err := f.writeJSON(d); err != nil {
			return err
		}
		d.endObject(n, 3)
	}
	d.str("\n  ]\n}\n")
	return nil
}

// writeJSON writes the family's series array, null when it has none, each
// series as SeriesSnapshot encodes.
func (f *family) writeJSON(d *jsonDoc) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.series) == 0 {
		d.str("null")
		return nil
	}
	var orderBuf [8]int
	order := labelOrder(f.labels, orderBuf[:0])
	d.str("[")
	for i, s := range f.series {
		if i > 0 {
			d.str(",")
		}
		d.line(4)
		d.str("{")
		n := 0
		if len(order) > 0 {
			d.field(&n, 5, "labels")
			d.str("{")
			for j, li := range order {
				if j > 0 {
					d.str(",")
				}
				d.line(6)
				d.string(f.labels[li])
				d.str(": ")
				d.string(labelValue(s.key, len(f.labels), li))
			}
			d.endObject(len(order), 6)
		}
		var value float64
		switch m := s.metric.(type) {
		case *Counter:
			value = float64(m.Value())
		case *Gauge:
			value = m.Value()
		case *Histogram:
			if err := f.writeHistogram(d, &n, m); err != nil {
				return err
			}
		}
		if err := f.floatField(d, &n, "value", value); err != nil {
			return err
		}
		d.endObject(n, 5)
	}
	d.line(3)
	d.str("]")
	return nil
}

// writeHistogram writes a histogram series' fields in SeriesSnapshot's
// order, omitting the empty ones as omitempty does. A histogram has no
// value, so they follow its labels.
func (f *family) writeHistogram(d *jsonDoc, n *int, h *Histogram) error {
	if c := h.Count(); c != 0 {
		d.field(n, 5, "count")
		d.bytes(strconv.AppendUint(d.num[:0], c, 10))
	}
	if err := f.floatField(d, n, "sum", h.Sum()); err != nil {
		return err
	}
	if err := f.floatField(d, n, "max", h.Max()); err != nil {
		return err
	}
	if len(h.bounds) > 0 {
		d.field(n, 5, "bounds")
		d.str("[")
		for i, b := range h.bounds {
			if i > 0 {
				d.str(",")
			}
			d.line(6)
			if !d.float(b) {
				return f.unsupported(b)
			}
		}
		d.line(5)
		d.str("]")
	}
	d.field(n, 5, "buckets")
	d.str("[")
	for i := range h.buckets {
		if i > 0 {
			d.str(",")
		}
		d.line(6)
		d.bytes(strconv.AppendUint(d.num[:0], h.buckets[i].Load(), 10))
	}
	d.line(5)
	d.str("]")
	return nil
}

// floatField writes a series' float field, or nothing when v is 0 (or
// -0), as omitempty does. NaN is not 0, so it is written, and refused.
func (f *family) floatField(d *jsonDoc, n *int, name string, v float64) error {
	if v == 0 {
		return nil
	}
	d.field(n, 5, name)
	if !d.float(v) {
		return f.unsupported(v)
	}
	return nil
}

func (f *family) unsupported(v float64) error {
	return fmt.Errorf("obs: metric %s: unsupported value %s", f.name, strconv.FormatFloat(v, 'g', -1, 64))
}

// AppendFloat appends v as encoding/json encodes a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 with a one-digit negative exponent
// unpadded. ok is false, and nothing is appended, for NaN and the
// infinities, which encoding/json refuses.
func AppendFloat(dst []byte, v float64) (b []byte, ok bool) {
	d := jsonDoc{buf: dst}
	ok = d.float(v)
	return d.buf, ok
}

// AppendString appends s quoted and escaped as encoding/json encodes a
// string with HTML escaping on.
func AppendString(dst []byte, s string) []byte {
	d := jsonDoc{buf: dst}
	d.string(s)
	return d.buf
}

// float writes v as AppendFloat does.
func (d *jsonDoc) float(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(d.num[:0], v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	d.bytes(b)
	return true
}

const hex = "0123456789abcdef"

// string writes s quoted and escaped as encoding/json escapes it with
// HTML escaping on: control bytes, <, > and & as \u00XX (but \b \f \n \r
// \t by name), U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func (d *jsonDoc) string(s string) {
	d.str(`"`)
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			d.str(s[start:i])
			switch b {
			case '\\', '"':
				d.bytes(append(d.num[:0], '\\', b))
			case '\b':
				d.str(`\b`)
			case '\f':
				d.str(`\f`)
			case '\n':
				d.str(`\n`)
			case '\r':
				d.str(`\r`)
			case '\t':
				d.str(`\t`)
			default:
				d.bytes(append(d.num[:0], '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF]))
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			d.str(s[start:i])
			d.str(`\ufffd`)
		case c == '\u2028' || c == '\u2029':
			d.str(s[start:i])
			d.bytes(append(d.num[:0], '\\', 'u', '2', '0', '2', hex[c&0xF]))
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	d.str(s[start:])
	d.str(`"`)
}

// labelOrder appends to order the indexes of labels in the order a
// series' label map encodes: sorted by name and, where a name repeats,
// only its last index, whose value the map keeps.
func labelOrder(labels []string, order []int) []int {
	for i := range labels {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(labels[a], labels[b]) })
	out := order[:0]
	for j, i := range order {
		if j+1 < len(order) && labels[order[j+1]] == labels[i] {
			continue
		}
		out = append(out, i)
	}
	return out
}

// labelValue is the i-th of the n label values joined in key, split as
// splitKey splits it: the last value keeps any separator left over.
func labelValue(key string, n, i int) string {
	for ; i > 0; i-- {
		_, key, _ = strings.Cut(key, labelSep)
		n--
	}
	if n > 1 {
		key, _, _ = strings.Cut(key, labelSep)
	}
	return key
}
