package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), in registration order. A
// nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.snapshotMetrics() {
		if err := writePromMetric(w, m); err != nil {
			return err
		}
	}
	return nil
}

// PrometheusContentType is the Content-Type of the text exposition
// format served by /metrics.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func writePromMetric(w io.Writer, m metric) error {
	if err := writePromHeader(w, m); err != nil {
		return err
	}
	return writePromSamples(w, m, "")
}

// writePromHeader emits the # HELP / # TYPE metadata block of one
// metric.
func writePromHeader(w io.Writer, m metric) error {
	name, help := m.metricName(), m.metricHelp()
	kind := ""
	switch m.(type) {
	case *Counter:
		kind = "counter"
	case *Gauge:
		kind = "gauge"
	case *Histogram:
		kind = "histogram"
	default:
		return fmt.Errorf("obs: unknown metric kind for %q", name)
	}
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

// writePromSamples emits one metric's sample lines. labels, when
// non-empty, is an already-rendered label pair list (`fabric="3"`)
// spliced into every sample — histograms merge it with their le
// label.
func writePromSamples(w io.Writer, m metric, labels string) error {
	name := m.metricName()
	sel := ""
	if labels != "" {
		sel = "{" + labels + "}"
	}
	switch v := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, sel, v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, sel, formatFloat(v.Value()))
		return err
	case *Histogram:
		var cum uint64
		for i := range v.counts {
			cum += v.counts[i].Load()
			le := "+Inf"
			if i < len(v.bounds) {
				le = formatFloat(v.bounds[i])
			}
			bucketSel := "{le=" + strconv.Quote(le) + "}"
			if labels != "" {
				bucketSel = "{" + labels + ",le=" + strconv.Quote(le) + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketSel, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, sel, formatFloat(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, sel, v.Count())
		return err
	}
	return fmt.Errorf("obs: unknown metric kind for %q", name)
}

// WritePrometheusLabeled renders several registries that share one
// metric schema — a sharded deployment's per-fabric registries — as a
// single valid exposition: every metric name appears in one block
// (HELP/TYPE once), with one sample set per registry distinguished by
// label (`<label>="<values[i]>"`). The metric order is the first
// registry's registration order; names some registries lack are
// simply absent from their sample sets, and names only later
// registries have are appended after.
//
// values[i] labels regs[i]; the slices must be the same length. Nil
// registries are skipped.
func WritePrometheusLabeled(w io.Writer, label string, values []string, regs []*Registry) error {
	if len(values) != len(regs) {
		return fmt.Errorf("obs: %d label values for %d registries", len(values), len(regs))
	}
	if !validName(label) {
		return fmt.Errorf("obs: invalid label name %q", label)
	}
	type sample struct {
		labels string
		m      metric
	}
	var order []string // metric names, first-seen order
	byName := map[string][]sample{}
	for i, r := range regs {
		if r == nil {
			continue
		}
		labels := label + "=" + strconv.Quote(values[i])
		for _, m := range r.snapshotMetrics() {
			name := m.metricName()
			if _, seen := byName[name]; !seen {
				order = append(order, name)
			}
			byName[name] = append(byName[name], sample{labels: labels, m: m})
		}
	}
	for _, name := range order {
		group := byName[name]
		if err := writePromHeader(w, group[0].m); err != nil {
			return err
		}
		for _, s := range group {
			if err := writePromSamples(w, s.m, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricJSON is one metric in a WriteJSON dump.
type MetricJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Help string `json:"help,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram is set for histograms.
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Dump captures every registered metric. Counters and gauges carry
// Value; histograms carry a snapshot with estimated p50/p99. A nil
// registry dumps nil.
func (r *Registry) Dump() []MetricJSON {
	if r == nil {
		return nil
	}
	ms := r.snapshotMetrics()
	out := make([]MetricJSON, 0, len(ms))
	for _, m := range ms {
		j := MetricJSON{Name: m.metricName(), Help: m.metricHelp()}
		switch v := m.(type) {
		case *Counter:
			j.Kind = "counter"
			f := float64(v.Value())
			j.Value = &f
		case *Gauge:
			j.Kind = "gauge"
			f := v.Value()
			j.Value = &f
		case *Histogram:
			j.Kind = "histogram"
			s := v.Snapshot()
			j.Histogram = &s
		}
		out = append(out, j)
	}
	return out
}

// WriteJSON dumps every metric as an indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	doc := struct {
		Metrics []MetricJSON `json:"metrics"`
	}{Metrics: r.Dump()}
	if doc.Metrics == nil {
		doc.Metrics = []MetricJSON{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTable renders a human-readable summary: histograms first
// (count, total, mean, p50, p99 — the per-stage table coflowsim -obs
// prints), then counters and gauges, each group sorted by name.
func (r *Registry) WriteTable(w io.Writer) error {
	if r == nil {
		return nil
	}
	var hists []*Histogram
	var scalars []metric
	for _, m := range r.snapshotMetrics() {
		if h, ok := m.(*Histogram); ok {
			hists = append(hists, h)
		} else {
			scalars = append(scalars, m)
		}
	}
	sort.Slice(hists, func(a, b int) bool { return hists[a].name < hists[b].name })
	sort.Slice(scalars, func(a, b int) bool { return scalars[a].metricName() < scalars[b].metricName() })

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(hists) > 0 {
		fmt.Fprintln(tw, "stage\tcount\ttotal\tmean\tp50\tp99")
		for _, h := range hists {
			s := h.Snapshot()
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
				h.name, s.Count, formatSeconds(s.Sum), formatSeconds(s.Mean),
				formatSeconds(s.P50), formatSeconds(s.P99))
		}
	}
	if len(scalars) > 0 {
		if len(hists) > 0 {
			fmt.Fprintln(tw, "\t\t\t\t\t")
		}
		for _, m := range scalars {
			switch v := m.(type) {
			case *Counter:
				fmt.Fprintf(tw, "%s\t%d\t\t\t\t\n", v.name, v.Value())
			case *Gauge:
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\n", v.name, formatFloat(v.Value()))
			}
		}
	}
	return tw.Flush()
}

// formatSeconds renders a duration in seconds with an SI-style unit
// chosen for readability (ns/µs/ms/s).
func formatSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-6:
		return fmt.Sprintf("%.0fns", v*1e9)
	case v < 1e-3:
		return fmt.Sprintf("%.1fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}
