package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"prism/internal/sim"
)

// The strict decoder walks the generic node tree (map[string]any, []any,
// string scalars) produced by parseTree. Every accessor records the keys
// it consumed; finish() then rejects any key the schema never asked for,
// with a path-qualified message listing the valid set — the unknown-field
// guarantee the satellite tests pin with hostile inputs.
//
// Errors are sticky: every obj of one document shares a decoder whose
// first failure is kept, after which every accessor returns its default
// and every check is a no-op. The schema therefore reads one field per
// line, in the order it validates, and Parse checks the error once.

// decoder is the error cell one document's objs share.
type decoder struct{ err error }

// fail keeps err (when non-nil) if it is the document's first failure.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// check fails the document with the formatted message when bad holds.
func (d *decoder) check(bad bool, format string, args ...any) {
	if bad {
		d.fail(fmt.Errorf(format, args...))
	}
}

// obj asserts v is a map node at path; nil (and a failure) otherwise.
func (d *decoder) obj(path string, v any) *obj {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail(fmt.Errorf("%s: expected a mapping, got %s", path, nodeKind(v)))
		return nil
	}
	return &obj{path: path, m: m, used: map[string]bool{}, dec: d}
}

// obj is one map node with its field path and consumed-key tracking.
type obj struct {
	path string
	m    map[string]any
	used map[string]bool
	keys []string // consumption order = the valid-key list in errors
	dec  *decoder
}

// check fails the document with a message under o's path when bad holds.
func (o *obj) check(bad bool, format string, args ...any) {
	if bad {
		o.dec.fail(fmt.Errorf("%s: %s", o.path, fmt.Sprintf(format, args...)))
	}
}

func (o *obj) fieldPath(key string) string { return o.path + "." + key }

func nodeKind(v any) string {
	switch v.(type) {
	case map[string]any:
		return "a mapping"
	case []any:
		return "a list"
	case string:
		return "a scalar"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// get marks a key consumed and returns its node; absent once the
// document has failed.
func (o *obj) get(key string) (any, bool) {
	if !o.used[key] {
		o.used[key] = true
		o.keys = append(o.keys, key)
	}
	if o.dec.err != nil {
		return nil, false
	}
	v, ok := o.m[key]
	return v, ok
}

// has reports whether the document sets key, without consuming it.
func (o *obj) has(key string) bool {
	_, ok := o.m[key]
	return ok
}

// finish fails on any key present in the document but never consumed by
// the schema — the strict-decoding contract.
func (o *obj) finish() {
	if o.dec.err != nil {
		return
	}
	var unknown []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return
	}
	sort.Strings(unknown)
	valid := append([]string(nil), o.keys...)
	sort.Strings(valid)
	o.dec.fail(fmt.Errorf("%s: unknown field %q (valid: %s)",
		o.path, unknown[0], strings.Join(valid, ", ")))
}

// scalar fetches a scalar field; ok=false when absent or malformed.
func (o *obj) scalar(key string) (string, bool) {
	v, ok := o.get(key)
	if !ok {
		return "", false
	}
	s, isStr := v.(string)
	if !isStr {
		o.dec.fail(fmt.Errorf("%s: expected a scalar, got %s", o.fieldPath(key), nodeKind(v)))
	}
	return s, isStr
}

func (o *obj) str(key, def string) string {
	if s, ok := o.scalar(key); ok {
		return s
	}
	return def
}

func (o *obj) strRequired(key string) string {
	s := o.str(key, "")
	if s == "" {
		o.dec.fail(fmt.Errorf("%s: required field missing", o.fieldPath(key)))
	}
	return s
}

// enum fetches a scalar restricted to the allowed values.
func (o *obj) enum(key, def string, allowed ...string) string {
	s := o.str(key, def)
	for _, a := range allowed {
		if s == a {
			return s
		}
	}
	o.dec.fail(fmt.Errorf("%s: unknown value %q (valid: %s)",
		o.fieldPath(key), s, strings.Join(allowed, ", ")))
	return def
}

func (o *obj) boolean(key string, def bool) bool {
	s, ok := o.scalar(key)
	switch {
	case !ok:
		return def
	case s == "true":
		return true
	case s == "false":
		return false
	}
	o.dec.fail(fmt.Errorf("%s: expected true or false, got %q", o.fieldPath(key), s))
	return def
}

func (o *obj) integer(key string, def int64) int64 {
	s, ok := o.scalar(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(strings.ReplaceAll(s, "_", ""), 10, 64)
	if err != nil {
		o.dec.fail(fmt.Errorf("%s: expected an integer, got %q", o.fieldPath(key), s))
		return def
	}
	return n
}

func (o *obj) float(key string, def float64) float64 {
	s, ok := o.scalar(key)
	if !ok {
		return def
	}
	f, err := parseFloatScalar(o.fieldPath(key), s)
	if err != nil {
		o.dec.fail(err)
		return def
	}
	return f
}

func parseFloatScalar(path, s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.ReplaceAll(s, "_", ""), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: expected a number, got %q", path, s)
	}
	return f, nil
}

// duration parses time.ParseDuration syntax ("5ms", "1.5us") into
// simulated time.
func (o *obj) duration(key string, def sim.Time) sim.Time {
	s, ok := o.scalar(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(s)
	switch {
	case err != nil:
		o.dec.fail(fmt.Errorf("%s: expected a duration like 5ms, got %q", o.fieldPath(key), s))
	case d < 0:
		o.dec.fail(fmt.Errorf("%s: duration must not be negative, got %q", o.fieldPath(key), s))
	default:
		return sim.Duration(d)
	}
	return def
}

// list fetches a list field; ok=false when absent or malformed. The
// typed accessors below turn a present empty list into an empty,
// non-nil slice.
func (o *obj) list(key string) ([]any, bool) {
	v, ok := o.get(key)
	if !ok {
		return nil, false
	}
	l, isList := v.([]any)
	if !isList {
		o.dec.fail(fmt.Errorf("%s: expected a list, got %s", o.fieldPath(key), nodeKind(v)))
	}
	return l, isList
}

// floatList fetches a list of numeric scalars.
func (o *obj) floatList(key string) []float64 {
	l, ok := o.list(key)
	if !ok {
		return nil
	}
	out := make([]float64, len(l))
	for i, e := range l {
		path := fmt.Sprintf("%s[%d]", o.fieldPath(key), i)
		s, isStr := e.(string)
		if !isStr {
			o.dec.fail(fmt.Errorf("%s: expected a number, got %s", path, nodeKind(e)))
			return nil
		}
		f, err := parseFloatScalar(path, s)
		if err != nil {
			o.dec.fail(err)
			return nil
		}
		out[i] = f
	}
	return out
}

// strList fetches a list of string scalars.
func (o *obj) strList(key string) []string {
	l, ok := o.list(key)
	if !ok {
		return nil
	}
	out := make([]string, len(l))
	for i, e := range l {
		s, isStr := e.(string)
		if !isStr {
			o.dec.fail(fmt.Errorf("%s[%d]: expected a scalar, got %s", o.fieldPath(key), i, nodeKind(e)))
			return nil
		}
		out[i] = s
	}
	return out
}

// child fetches a nested mapping; nil when absent or malformed.
func (o *obj) child(key string) *obj {
	v, ok := o.get(key)
	if !ok {
		return nil
	}
	return o.dec.obj(o.fieldPath(key), v)
}

// children fetches a list of mappings.
func (o *obj) children(key string) []*obj {
	l, ok := o.list(key)
	if !ok {
		return nil
	}
	out := make([]*obj, len(l))
	for i, e := range l {
		if out[i] = o.dec.obj(fmt.Sprintf("%s[%d]", o.fieldPath(key), i), e); out[i] == nil {
			return nil
		}
	}
	return out
}
