// Package scenario makes runs data: a versioned, strictly-decoded
// JSON/YAML schema covering topology (single host or multi-host
// cluster), poll policy and knobs, traffic mixes (CBR, bursty,
// incast, elephant/mice, diurnal), fault timelines, admission control,
// and declarative SLO assertions. Compile lowers a Scenario onto the
// exact structures the Go harnesses use — experiments.Params,
// experiments.BaseSpec, testbed.Spec, cluster.Config — so a scenario file
// and the equivalent figure harness build byte-identical simulations; the
// round-trip tests prove the committed paper-figure scenarios reproduce
// the existing golden fixtures bit-for-bit at 1/2/4 workers.
//
// The repository has no dependencies, so YAML input is handled by a
// strict subset parser rather than a full YAML library. The subset is
// exactly what configuration needs and nothing more:
//
//   - block maps (`key: value`, `key:` + indented block)
//   - block lists (`- value`, `- key: value` inline maps)
//   - flow lists of scalars (`[a, b, c]`)
//   - double-quoted scalars with Go escapes, and bare scalars
//   - `#` comments (whole-line, or after a value preceded by a space)
//   - two-or-more space indentation; tabs are an error
//
// Anchors, aliases, multi-line strings, multiple documents and implicit
// typing are deliberately absent: every scalar stays a string until the
// schema decoder coerces it, so errors always carry the full field path.
// Files whose first non-blank byte is '{' are parsed as JSON instead;
// both syntaxes feed the same strict decoder.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// parseTree parses a scenario document into the generic node tree the
// strict decoder walks: map[string]any / []any / string scalars.
func parseTree(data []byte) (any, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return parseJSONTree(data)
	}
	return parseYAMLTree(data)
}

// parseJSONTree decodes JSON with numbers kept as json.Number, then
// normalizes every leaf to a string scalar so the schema decoder sees the
// same tree shape for both syntaxes.
func parseJSONTree(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("json: %w", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err == nil {
		return nil, fmt.Errorf("json: trailing data after document")
	}
	return normalizeJSON(v), nil
}

func normalizeJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = normalizeJSON(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = normalizeJSON(e)
		}
		return out
	case json.Number:
		return t.String()
	case bool:
		return strconv.FormatBool(t)
	case nil:
		return ""
	default:
		return fmt.Sprint(t)
	}
}

// yline is one significant (non-blank, non-comment) line of a YAML
// document.
type yline struct {
	num    int // 1-based source line
	indent int
	text   string // trimmed content, trailing comment stripped
}

var keyRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+:(\s|$)`)

// lexYAML splits the document into significant lines, enforcing the
// subset's lexical rules (no tabs in indentation, comments stripped).
func lexYAML(data []byte) ([]yline, error) {
	var out []yline
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", i+1)
		}
		text := line[indent:]
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		text = stripComment(text)
		if text == "" {
			continue
		}
		out = append(out, yline{num: i + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing ` #...` comment outside double quotes.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuote:
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == '#' && !inQuote && i > 0 && s[i-1] == ' ':
			return strings.TrimRight(s[:i], " ")
		}
	}
	return strings.TrimRight(s, " ")
}

type yparser struct {
	lines []yline
	pos   int
}

func parseYAMLTree(data []byte) (any, error) {
	lines, err := lexYAML(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	p := &yparser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	return v, nil
}

// parseBlock parses the map or list whose entries sit at exactly this
// indent, stopping at the first line indented less.
func (p *yparser) parseBlock(indent int) (any, error) {
	l := p.lines[p.pos]
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *yparser) parseMap(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: list item in a mapping block", l.num)
		}
		if !keyRe.MatchString(l.text) {
			return nil, fmt.Errorf("line %d: expected `key: value`, got %q", l.num, l.text)
		}
		colon := strings.Index(l.text, ":")
		key := l.text[:colon]
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimSpace(l.text[colon+1:])
		p.pos++
		if rest != "" {
			v, err := parseScalarOrFlow(l.num, rest)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// `key:` introduces a nested block on the following lines.
		if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
			return nil, fmt.Errorf("line %d: key %q has no value (nested block must be indented)", l.num, key)
		}
		v, err := p.parseBlock(p.lines[p.pos].indent)
		if err != nil {
			return nil, err
		}
		m[key] = v
	}
	return m, nil
}

func (p *yparser) parseList(indent int) (any, error) {
	var list []any
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		if l.text != "-" && !strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: expected `- item` in list block, got %q", l.num, l.text)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			// `-` alone: the item is the nested block below.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("line %d: empty list item", l.num)
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			continue
		}
		if keyRe.MatchString(rest) {
			// `- key: value` starts an inline map whose remaining keys sit
			// on the following lines, aligned with the first key (the dash
			// plus one space deep). Rewrite the line as that first key and
			// let parseMap consume the whole item.
			itemIndent := indent + 2
			p.lines[p.pos] = yline{num: l.num, indent: itemIndent, text: rest}
			v, err := p.parseMap(itemIndent)
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			continue
		}
		v, err := parseScalarOrFlow(l.num, rest)
		if err != nil {
			return nil, err
		}
		list = append(list, v)
		p.pos++
	}
	return list, nil
}

// parseScalarOrFlow parses an inline value: a flow list of scalars, a
// double-quoted string, or a bare scalar (kept verbatim).
func parseScalarOrFlow(lineNum int, s string) (any, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("line %d: unterminated flow list %q", lineNum, s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return []any{}, nil
		}
		parts, err := splitFlow(lineNum, inner)
		if err != nil {
			return nil, err
		}
		list := make([]any, len(parts))
		for i, part := range parts {
			v, err := parseScalar(lineNum, part)
			if err != nil {
				return nil, err
			}
			list[i] = v
		}
		return list, nil
	}
	return parseScalar(lineNum, s)
}

// splitFlow splits a flow list body on top-level commas, respecting
// double quotes.
func splitFlow(lineNum int, s string) ([]string, error) {
	var parts []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuote:
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if inQuote {
		return nil, fmt.Errorf("line %d: unterminated quote in flow list", lineNum)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("line %d: empty element in flow list", lineNum)
		}
	}
	return parts, nil
}

func parseScalar(lineNum int, s string) (string, error) {
	if strings.HasPrefix(s, `"`) {
		v, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("line %d: bad quoted string %s: %v", lineNum, s, err)
		}
		return v, nil
	}
	if strings.ContainsAny(s, `"{}`) {
		return "", fmt.Errorf("line %d: scalar %q must be double-quoted (contains %q characters)", lineNum, s, `"{}`)
	}
	return s, nil
}
