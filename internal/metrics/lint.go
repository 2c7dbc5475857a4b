package metrics

// LintProm is a small Prometheus text-exposition conformance checker
// used by tests against the live /metricsz output. It is deliberately a
// real parser — line splitting, label scanning, family resolution — so
// a malformed sample or a family emitted twice fails loudly instead of
// scraping as garbage.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// histSuffixes map a sample name back to its histogram family.
var histSuffixes = []string{"_bucket", "_sum", "_count"}

// LintProm parses a Prometheus text exposition and returns its
// conformance problems (empty = clean):
//
//   - every sample belongs to a family with exactly one # TYPE (and # HELP)
//   - heads precede their samples; no duplicate HELP/TYPE lines
//   - each family's samples are contiguous (no interleaving)
//   - every declared family has at least one sample
//   - sample lines parse: name, optional {labels}, float value
//   - label values use only the escapes \\, \" and \n, and lines are UTF-8
//   - no series (name plus labels) appears twice
func LintProm(r io.Reader) []string {
	var errs []string
	typ := map[string]string{}
	helped := map[string]bool{}
	sampled := map[string]bool{}
	closed := map[string]bool{}
	seen := map[string]bool{} // series: name plus its label pairs
	current := ""
	lineNo := 0

	enter := func(fam string) {
		if fam == current {
			return
		}
		if current != "" {
			closed[current] = true
		}
		if closed[fam] {
			errs = append(errs, fmt.Sprintf("line %d: family %q samples are not contiguous", lineNo, fam))
		}
		current = fam
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				errs = append(errs, fmt.Sprintf("line %d: unrecognized comment %q", lineNo, line))
				continue
			}
			name := fields[2]
			switch fields[1] {
			case "HELP":
				if helped[name] {
					errs = append(errs, fmt.Sprintf("line %d: duplicate HELP for %q", lineNo, name))
				}
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					errs = append(errs, fmt.Sprintf("line %d: empty HELP text for %q", lineNo, name))
				}
				helped[name] = true
			case "TYPE":
				if _, dup := typ[name]; dup {
					errs = append(errs, fmt.Sprintf("line %d: duplicate TYPE for %q", lineNo, name))
				}
				if sampled[name] {
					errs = append(errs, fmt.Sprintf("line %d: TYPE for %q after its samples", lineNo, name))
				}
				t := ""
				if len(fields) >= 4 {
					t = strings.TrimSpace(fields[3])
				}
				switch t {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typ[name] = t
				default:
					errs = append(errs, fmt.Sprintf("line %d: invalid TYPE %q for %q", lineNo, t, name))
					typ[name] = "untyped"
				}
				enter(name)
			}
			continue
		}
		if !utf8.ValidString(line) {
			errs = append(errs, fmt.Sprintf("line %d: not valid UTF-8", lineNo))
		}
		name, labels, rest, perr := splitSample(line)
		if perr != "" {
			errs = append(errs, fmt.Sprintf("line %d: %s", lineNo, perr))
			continue
		}
		series := name + "{" + strings.Join(labels, "\x00") + "}"
		if seen[series] {
			errs = append(errs, fmt.Sprintf("line %d: duplicate series %q", lineNo, line))
		}
		seen[series] = true
		fam, ok := familyOf(name, typ)
		if !ok {
			errs = append(errs, fmt.Sprintf("line %d: sample %q has no # TYPE'd family", lineNo, name))
			continue
		}
		if !helped[fam] {
			errs = append(errs, fmt.Sprintf("line %d: family %q of sample %q has no # HELP", lineNo, fam, name))
			helped[fam] = true // report once
		}
		if _, err := strconv.ParseFloat(rest, 64); err != nil {
			errs = append(errs, fmt.Sprintf("line %d: sample %q has bad value %q", lineNo, name, rest))
		}
		sampled[fam] = true
		enter(fam)
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Sprintf("scan: %v", err))
	}
	for name := range typ {
		if !sampled[name] {
			errs = append(errs, fmt.Sprintf("family %q declared but has no samples", name))
		}
	}
	return errs
}

// Families returns the # TYPE of every family an exposition declares,
// by family name.
func Families(r io.Reader) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// familyOf resolves a sample name to its declared family: exact match
// first, then histogram suffix stripping (base must be TYPE histogram).
func familyOf(name string, typ map[string]string) (string, bool) {
	if _, ok := typ[name]; ok {
		return name, true
	}
	for _, suf := range histSuffixes {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typ[base] == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

// splitSample splits a sample line into metric name, label pairs
// (alternating key, unescaped value) and value text. Label values may
// contain '}', ',' and the three escapes the format defines (\\, \" and
// \n); any other escape is an error.
func splitSample(line string) (name string, labels []string, value, errText string) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, "", fmt.Sprintf("malformed sample %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return "", nil, "", fmt.Sprintf("malformed label block in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '"' {
					rest, closed = rest[j+1:], true
					break
				}
				if c != '\\' {
					v.WriteByte(c)
					continue
				}
				if j++; j == len(rest) {
					break
				}
				switch rest[j] {
				case '\\', '"':
					v.WriteByte(rest[j])
				case 'n':
					v.WriteByte('\n')
				default:
					return "", nil, "", fmt.Sprintf("invalid escape \\%c in label %s of %q", rest[j], key, line)
				}
			}
			if !closed {
				return "", nil, "", fmt.Sprintf("unterminated label block in %q", line)
			}
			labels = append(labels, key, v.String())
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			} else if !strings.HasPrefix(rest, "}") {
				return "", nil, "", fmt.Sprintf("malformed label block in %q", line)
			}
		}
	}
	value = strings.TrimSpace(rest)
	if value == "" {
		return "", nil, "", fmt.Sprintf("sample %q has no value", line)
	}
	// Timestamps (a second field) are not used by this codebase.
	if strings.ContainsAny(value, " \t") {
		return "", nil, "", fmt.Sprintf("unexpected trailing fields in %q", line)
	}
	return name, labels, value, ""
}

// Sample is one sample of a text exposition.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples parses a text exposition into its samples, in order, skipping
// comments. It checks only what it needs to parse; LintProm checks the
// rest.
func Samples(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, perr := splitSample(line)
		if perr != "" {
			return nil, errors.New(perr)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q has bad value %q", name, value)
		}
		s := Sample{Name: name, Value: v}
		if len(labels) > 0 {
			s.Labels = make(map[string]string, len(labels)/2)
			for i := 0; i < len(labels); i += 2 {
				s.Labels[labels[i]] = labels[i+1]
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}
