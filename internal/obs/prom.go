package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a registry
// snapshot. Registry names follow the repo's dotted.lowercase
// convention ("serve.queue_wait_ns"); the Prometheus name is the same
// with '.' replaced by '_'. That mapping must be lossless — two dotted
// names must never collide after mapping — which the repo-root metric
// name lint test enforces over every registration site in the tree.
//
// Histograms map to native Prometheus histograms: the log2 bucket with
// bits.Len64 index i holds integer observations in [2^(i-1), 2^i), so
// its cumulative upper bound is exactly le = 2^i − 1 (le="0" for the
// zero bucket). Quantile estimates are additionally exposed as a
// companion gauge family "<name>_q{q="0.5"|"0.9"|"0.99"}" — the text
// format has no histogram-with-quantiles type, and serving them beside
// the buckets keeps dashboards free of histogram_quantile() while the
// buckets stay available for cross-instance aggregation.

// ValidMetricName reports whether a registry name follows the
// dotted.lowercase convention: one or more '.'-separated segments of
// [a-z0-9_]+, starting with a letter. The Printf verb %s
// ("serve.latency.total.%s.%s") is allowed as a whole-segment
// placeholder, since registration sites build class-keyed names with
// fmt.Sprintf.
func ValidMetricName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for _, seg := range strings.Split(name, ".") {
		if seg == "" {
			return false
		}
		if seg == "%s" {
			continue
		}
		for _, c := range seg {
			if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
				return false
			}
		}
	}
	return true
}

// PromName maps a dotted registry name to its Prometheus name.
func PromName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// WriteProm renders the snapshot in the Prometheus text format,
// deterministically ordered by name.
func (s Snapshot) WriteProm(w io.Writer) {
	for _, name := range sortedKeys(s.Counters) {
		p := PromName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p := PromName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", p, p, s.Gauges[name])
	}
	hists := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Histograms[name]
		p := PromName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", p)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p, bucketUpper(b.Bit), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", p, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", p, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", p, h.Count)
		fmt.Fprintf(w, "# TYPE %s_q gauge\n", p)
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			fmt.Fprintf(w, "%s_q{q=\"%s\"} %s\n", p, q.label, strconv.FormatFloat(q.v, 'g', -1, 64))
		}
	}
}

// bucketUpper is the inclusive integer upper bound of log2 bucket bit:
// observations are non-negative int64s, so bucket bit holds values
// <= 2^bit − 1 (bit 0 is exactly zero).
func bucketUpper(bit int) int64 {
	if bit <= 0 {
		return 0
	}
	if bit >= 63 {
		return 1<<63 - 1
	}
	return 1<<int64(bit) - 1
}

// LintProm parses a Prometheus text-format exposition strictly enough
// to pin the format in tests: every line must be a comment, blank, or a
// well-formed sample; TYPE declarations must precede and match their
// family's samples; histogram families must carry monotonically
// non-decreasing cumulative buckets ending in le="+Inf" that agrees
// with _count. It returns the first violation, or nil.
func LintProm(data []byte) error {
	types := map[string]string{}
	// histogram accounting: family -> last cumulative bucket value,
	// +Inf bucket value, _count value (pointers distinguish "unseen").
	lastBucket := map[string]float64{}
	infBucket := map[string]float64{}
	countVal := map[string]float64{}
	sawInf := map[string]bool{}
	sawCount := map[string]bool{}

	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 4 && fields[1] == "TYPE" {
					return fmt.Errorf("prom line %d: malformed %s comment: %q", lineNo, fields[1], line)
				}
				if fields[1] == "TYPE" {
					name, typ := fields[2], fields[3]
					if !validPromName(name) {
						return fmt.Errorf("prom line %d: bad metric name %q", lineNo, name)
					}
					switch typ {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fmt.Errorf("prom line %d: unknown type %q", lineNo, typ)
					}
					if _, dup := types[name]; dup {
						return fmt.Errorf("prom line %d: duplicate TYPE for %q", lineNo, name)
					}
					types[name] = typ
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("prom line %d: %w", lineNo, err)
		}
		fam := promFamily(name, types)
		if typ, ok := types[fam]; !ok {
			return fmt.Errorf("prom line %d: sample %q has no preceding TYPE", lineNo, name)
		} else if typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("prom line %d: histogram bucket %q lacks le label", lineNo, name)
				}
				if le == "+Inf" {
					infBucket[fam] = value
					sawInf[fam] = true
				} else {
					if _, err := strconv.ParseFloat(le, 64); err != nil {
						return fmt.Errorf("prom line %d: bad le %q", lineNo, le)
					}
					if value < lastBucket[fam] {
						return fmt.Errorf("prom line %d: %s buckets not cumulative (%g < %g)", lineNo, fam, value, lastBucket[fam])
					}
					lastBucket[fam] = value
				}
			case strings.HasSuffix(name, "_sum"):
			case strings.HasSuffix(name, "_count"):
				countVal[fam] = value
				sawCount[fam] = true
			default:
				return fmt.Errorf("prom line %d: unexpected histogram sample %q", lineNo, name)
			}
		}
	}
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		if !sawInf[fam] {
			return fmt.Errorf("prom: histogram %s has no le=\"+Inf\" bucket", fam)
		}
		if !sawCount[fam] {
			return fmt.Errorf("prom: histogram %s has no _count sample", fam)
		}
		if infBucket[fam] != countVal[fam] {
			return fmt.Errorf("prom: histogram %s +Inf bucket %g != _count %g", fam, infBucket[fam], countVal[fam])
		}
		if lastBucket[fam] > infBucket[fam] {
			return fmt.Errorf("prom: histogram %s finite buckets exceed +Inf (%g > %g)", fam, lastBucket[fam], infBucket[fam])
		}
	}
	return nil
}

// promFamily strips a histogram sample suffix when its base family is
// TYPE histogram (a bare name like "x_count" may otherwise be its own
// counter family).
func promFamily(name string, types map[string]string) string {
	for _, suf := range [...]string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if types[base] == "histogram" {
				return base
			}
		}
	}
	return name
}

// validPromName checks the Prometheus metric-name grammar.
func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		letter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parsePromSample decodes one sample line: name[{labels}] value [ts].
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	labels = map[string]string{}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", line)
		}
		for _, pair := range splitPromLabels(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			labels[k] = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n").Replace(v[1 : len(v)-1])
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q needs a value (and at most a timestamp)", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	return name, labels, value, nil
}

// splitPromLabels splits `a="1",b="2"` on commas outside quotes.
func splitPromLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
