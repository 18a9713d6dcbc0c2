package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with # HELP
// and # TYPE comments, series sorted by label values, histograms
// expanded into cumulative _bucket/_sum/_count lines.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		series := f.snapshot()
		if len(series) == 0 {
			continue // a family with no series yet has nothing to say
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.typ {
	case TypeCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""), formatValue(s.counter.Value()))
		return err
	case TypeGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""), formatValue(s.gauge.Value()))
		return err
	case TypeHistogram:
		// _count is the +Inf bucket's cumulative count from this same
		// pass, so an Observe landing mid-scrape cannot set the two
		// apart; _sum, loaded after, may already include it.
		h := s.histogram
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labelNames, s.labelValues, "le", formatValue(bound)), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labelNames, s.labelValues, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""), cum)
		return err
	}
	return fmt.Errorf("obs: unknown family type %q", f.typ)
}

// labelString renders a {a="b",...} label block, optionally appending
// one extra label (the histogram le bound); empty when there are no
// labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// Handler returns an http.Handler serving the registry as a
// text-format exposition — the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteText(w)
	})
}
