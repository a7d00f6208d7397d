package ts

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteExposition renders series snapshots in the Prometheus text exposition
// format: counters as their total, gauges as their latest point,
// histograms as cumulative _bucket lines with the implicit +Inf bucket,
// sketches as summaries, each with _sum/_count. HELP and TYPE are emitted
// once per name; series of one name must be adjacent, as the store's
// identity order has them.
func WriteExposition(w io.Writer, series []SeriesSnapshot) {
	prev := ""
	for _, sn := range series {
		typ := sn.Kind
		if typ == Sketch.String() {
			typ = "summary"
		}
		if sn.Name != prev {
			prev = sn.Name
			if sn.Help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", sn.Name, sn.Help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", sn.Name, typ)
		}
		sample := func(suffix, extraKey, extraValue, value string) {
			if labels := formatLabels(sn.Labels, extraKey, extraValue); labels != "" {
				fmt.Fprintf(w, "%s%s{%s} %s\n", sn.Name, suffix, labels, value)
			} else {
				fmt.Fprintf(w, "%s%s %s\n", sn.Name, suffix, value)
			}
		}
		count := strconv.FormatUint(sn.Count, 10)
		switch typ {
		case "counter":
			sample("", "", "", formatValue(sn.Total))
		case "histogram":
			for _, b := range sn.Buckets {
				sample("_bucket", "le", formatValue(b.LE), strconv.FormatUint(b.Count, 10))
			}
			sample("_bucket", "le", "+Inf", count)
			sample("_sum", "", "", formatValue(sn.Sum))
			sample("_count", "", "", count)
		case "summary":
			for _, qv := range sn.Quantiles {
				sample("", "quantile", formatValue(qv.Quantile), formatValue(qv.Value))
			}
			sample("_sum", "", "", formatValue(sn.Sum))
			sample("_count", "", "", count)
		default:
			v := 0.0
			if n := len(sn.Points); n > 0 {
				v = sn.Points[n-1].V
			}
			sample("", "", "", formatValue(v))
		}
	}
}

// labelEscaper escapes label values per the Prometheus text exposition
// format: backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatLabels renders a label set sorted by key, appending one extra
// pair (extraKey non-empty) after the sorted base labels — the histogram
// "le" and summary "quantile" labels, which go through the same escaper as
// every other value. Returns "" for an empty set.
func formatLabels(labels map[string]string, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(extraValue))
		b.WriteByte('"')
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
