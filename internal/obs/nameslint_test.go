package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repo-wide metric-name lint: every registration site in the tree —
// r.Counter("..."), .Gauge(...), .Histogram(...), including the
// fmt.Sprintf variants that build class-keyed names, plus
// the scrape-time synthetics injected into a Snapshot's maps — must use
// a dotted.lowercase name, and the '.'→'_' Prometheus mapping must stay
// lossless (no two distinct dotted names may collide after mapping).

// registrationRE matches a metric registration with a literal (or
// Sprintf-format) name, tolerating a line break between the call and
// its string argument.
var registrationRE = regexp.MustCompile(`\.(Counter|Gauge|Histogram)\(\s*(?:fmt\.Sprintf\(\s*)?"((?:[^"\\]|\\.)*)"`)

// snapshotInjectRE matches direct writes into a Snapshot's maps
// (handleMetrics' scrape-time synthetics).
var snapshotInjectRE = regexp.MustCompile(`\.(Counters|Gauges|Histograms)\["((?:[^"\\]|\\.)*)"\]\s*=`)

func TestMetricNamesRepoWide(t *testing.T) {
	root := filepath.Join("..", "..")
	names := map[string]string{} // dotted name -> first file:site
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, re := range []*regexp.Regexp{registrationRE, snapshotInjectRE} {
			for _, m := range re.FindAllSubmatch(src, -1) {
				name := string(m[2])
				// A literal ending in "." is a string-concatenation prefix
				// ("emu.trap." + kind); lint it as prefix plus a dynamic
				// final segment. The site itself must sanitize the suffix.
				if strings.HasSuffix(name, ".") {
					name += "%s"
				}
				if _, seen := names[name]; !seen {
					names[name] = path
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sanity-check the scanner itself: if the regexes rot, the test must
	// fail loudly instead of passing over an empty set.
	if len(names) < 20 {
		t.Fatalf("scanner found only %d registration sites — the lint regex no longer matches the codebase", len(names))
	}
	for _, known := range []string{"serve.requests", "serve.queue.depth.total", "serve.latency.total.%s.%s"} {
		if _, ok := names[known]; !ok {
			t.Errorf("scanner missed known registration %q", known)
		}
	}

	promSeen := map[string]string{} // prom name -> dotted name
	for name, site := range names {
		if !ValidMetricName(name) {
			t.Errorf("%s: metric name %q violates the dotted.lowercase convention", site, name)
			continue
		}
		p := PromName(name)
		if prev, ok := promSeen[p]; ok && prev != name {
			t.Errorf("metric names %q and %q collide as Prometheus name %q — the '.'→'_' mapping must stay lossless", name, prev, p)
		}
		promSeen[p] = name
	}
}
