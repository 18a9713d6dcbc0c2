package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name (including any
// _bucket/_sum/_count histogram suffix), its labels, and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family recovered from an exposition.
type ParsedFamily struct {
	Name    string
	Type    string
	Samples []Sample
}

// Exposition is a parsed Prometheus text-format document. The parser
// is deliberately strict — it is the test suite's format validator and
// the obs-check lint, so anything a real Prometheus scraper could
// trip over must be an error here, not a shrug.
type Exposition struct {
	// Families in document order, keyed by family (base) name.
	Families map[string]*ParsedFamily
	Order    []string
}

// Value returns the value of the sample with the exact name and label
// set (labels as alternating key, value pairs), and whether it exists.
func (e *Exposition) Value(name string, labels ...string) (float64, bool) {
	if len(labels)%2 != 0 {
		panic("obs: Value wants alternating label key/value pairs")
	}
	fam, ok := e.Families[familyName(name)]
	if !ok {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name != name || len(s.Labels) != len(labels)/2 {
			continue
		}
		match := true
		for i := 0; i < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum returns the summed value of every sample with the given name
// regardless of labels — e.g. a counter totaled across its worker
// label — and whether at least one sample matched.
func (e *Exposition) Sum(name string) (float64, bool) {
	fam, ok := e.Families[familyName(name)]
	if !ok {
		return 0, false
	}
	total, matched := 0.0, false
	for _, s := range fam.Samples {
		if s.Name == name {
			total += s.Value
			matched = true
		}
	}
	return total, matched
}

// familyName strips the histogram sample suffixes back to the family
// base name.
func familyName(sample string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base != sample {
			return base
		}
	}
	return sample
}

// ParseText parses and validates a Prometheus text-format exposition.
// It enforces the structural rules a scraper relies on: HELP/TYPE
// comments precede their samples, types are known, sample names belong
// to a declared family (allowing histogram suffixes only for
// histograms), label syntax is well-formed, values parse as floats,
// no series repeats, and histogram series carry le labels with an
// +Inf terminal bucket consistent with _count.
func ParseText(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Families: make(map[string]*ParsedFamily)}
	seen := make(map[string]bool) // duplicate-series detection
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(exp, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := familyName(sample.Name)
		fam := exp.Families[base]
		if fam == nil {
			// A histogram suffix on an undeclared family must not silently
			// invent a family named e.g. "x" from a stray "x_sum".
			return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, sample.Name)
		}
		if sample.Name != base && fam.Type != TypeHistogram {
			return nil, fmt.Errorf("line %d: %s sample %s carries a histogram suffix", lineNo, fam.Type, sample.Name)
		}
		if sample.Name == base && fam.Type == TypeHistogram {
			return nil, fmt.Errorf("line %d: histogram %s has a bare sample line", lineNo, base)
		}
		key := sample.Name + "{" + canonicalLabels(sample.Labels) + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range exp.Order {
		if err := checkHistogram(exp.Families[name]); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

func parseComment(exp *Exposition, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment: legal, ignored
	}
	name := fields[2]
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("invalid metric name %q in %s comment", name, fields[1])
	}
	fam := exp.Families[name]
	if fam == nil {
		fam = &ParsedFamily{Name: name}
		exp.Families[name] = fam
		exp.Order = append(exp.Order, name)
	}
	if fields[1] == "HELP" {
		return nil
	}
	if len(fields) < 4 {
		return fmt.Errorf("# TYPE %s missing a type", name)
	}
	typ := strings.TrimSpace(fields[3])
	switch typ {
	case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
	default:
		return fmt.Errorf("unknown type %q for %s", typ, name)
	}
	if len(fam.Samples) > 0 {
		return fmt.Errorf("# TYPE %s after its samples", name)
	}
	fam.Type = typ
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:nameEnd]
	if !metricNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := -1
		inQuote, escaped := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case escaped:
				escaped = false
			case inQuote && c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	valueStr := strings.TrimSpace(rest)
	// A trailing timestamp is legal in the format; this repo never emits
	// one, and allowing it here would let a corrupt value slip through.
	if strings.ContainsAny(valueStr, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseValue(valueStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", valueStr, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, out map[string]string) error {
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", body[i:])
		}
		name := body[i : i+eq]
		if !labelNameRe.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var b strings.Builder
		closed := false
		for i < len(body) {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return fmt.Errorf("dangling escape in label %s", name)
				}
				switch body[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %s", body[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return fmt.Errorf("unterminated value for label %s", name)
		}
		if _, dup := out[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		out[name] = b.String()
		if i < len(body) {
			if body[i] != ',' {
				return fmt.Errorf("expected ',' after label %s", name)
			}
			i++
		}
	}
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram validates a histogram family's internal consistency:
// every series carries le-labeled buckets ending at +Inf whose
// cumulative count equals its _count sample.
func checkHistogram(fam *ParsedFamily) error {
	if fam.Type != TypeHistogram {
		return nil
	}
	type hseries struct {
		infBucket, count float64
		haveInf, haveCnt bool
	}
	groups := map[string]*hseries{}
	group := func(labels map[string]string) *hseries {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := canonicalLabels(rest)
		g := groups[key]
		if g == nil {
			g = &hseries{}
			groups[key] = g
		}
		return g
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s has a bucket without le", fam.Name)
			}
			if le == "+Inf" {
				g := group(s.Labels)
				g.infBucket, g.haveInf = s.Value, true
			}
		case fam.Name + "_count":
			g := group(s.Labels)
			g.count, g.haveCnt = s.Value, true
		}
	}
	for key, g := range groups {
		if !g.haveInf || !g.haveCnt {
			return fmt.Errorf("histogram %s{%s} is missing its +Inf bucket or _count", fam.Name, key)
		}
		if g.infBucket != g.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %v != count %v", fam.Name, key, g.infBucket, g.count)
		}
	}
	return nil
}

func canonicalLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	// insertion sort: tiny maps
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// Exemplify gives every family that has no series yet one, whose label
// values are its label names (route="route"), and returns every family
// name, sorted. The obs-check gate calls it on a bare catalog, so that
// the exposition it round-trips shows every registered family; a served
// registry must not, since the placeholder series would be scraped.
func (r *Registry) Exemplify() []string {
	fams := r.snapshotFamilies()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.name
		if len(f.snapshot()) == 0 {
			f.get(f.labelNames)
		}
	}
	return names
}

// Lint checks the registry's metric catalog against the project's
// naming conventions — the obs-check gate. prefix is the required
// family-name prefix ("caem_"); pass "" to skip the prefix rule.
//
// Rules: names match the Prometheus grammar and carry the prefix;
// every family has help text; counters end in _total; gauges and
// histograms do not (a histogram's _total would collide with a counter
// reading); histograms measuring time end in _seconds so dashboards
// can assume the unit; label names are well-formed and never "le"
// (reserved for histogram buckets).
func (r *Registry) Lint(prefix string) []error {
	var errs []error
	for _, f := range r.snapshotFamilies() {
		if prefix != "" && !strings.HasPrefix(f.name, prefix) {
			errs = append(errs, fmt.Errorf("%s: missing the %q prefix", f.name, prefix))
		}
		if strings.TrimSpace(f.help) == "" {
			errs = append(errs, fmt.Errorf("%s: no help text", f.name))
		}
		switch f.typ {
		case TypeCounter:
			if !strings.HasSuffix(f.name, "_total") {
				errs = append(errs, fmt.Errorf("%s: counter names must end in _total", f.name))
			}
		case TypeGauge, TypeHistogram:
			if strings.HasSuffix(f.name, "_total") {
				errs = append(errs, fmt.Errorf("%s: only counters may end in _total", f.name))
			}
		}
		if f.typ == TypeHistogram {
			if !strings.HasSuffix(f.name, "_seconds") && !strings.HasSuffix(f.name, "_cells") &&
				!strings.HasSuffix(f.name, "_bytes") {
				errs = append(errs, fmt.Errorf("%s: histogram names must state their unit (_seconds, _bytes, _cells)", f.name))
			}
		}
		for _, l := range f.labelNames {
			if l == "le" {
				errs = append(errs, fmt.Errorf("%s: label name le is reserved for histogram buckets", f.name))
			}
		}
	}
	return errs
}
