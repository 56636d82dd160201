package obs

import (
	"strings"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	valid := []string{
		"serve.requests", "serve.queue_wait_ns", "serve.latency.total.%s.%s",
		"guard.breaker.open_now", "emu.trap.%s", "serve.latency.total.2xx.fused",
		"x",
	}
	for _, n := range valid {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false, want true", n)
		}
	}
	invalid := []string{
		"", "Serve.requests", "serve..requests", ".serve", "serve.",
		"serve.Queue", "serve-requests", "serve.re quests", "2serve.x", "serve.queue.depth.%d",
	}
	for _, n := range invalid {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true, want false", n)
		}
	}
}

func TestPromName(t *testing.T) {
	if got := PromName("serve.queue.depth.total"); got != "serve_queue_depth_total" {
		t.Errorf("PromName = %q", got)
	}
}

func TestWritePromLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(7)
	r.Gauge("serve.inflight").Set(3)
	h := r.Histogram("serve.total_ns")
	for _, v := range []int64{0, 1, 3, 900, 900, 1 << 40} {
		h.Observe(v)
	}
	var b strings.Builder
	r.Snapshot().WriteProm(&b)
	out := b.String()
	if err := LintProm([]byte(out)); err != nil {
		t.Fatalf("WriteProm output fails LintProm: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE serve_requests counter\nserve_requests 7\n",
		"# TYPE serve_inflight gauge\nserve_inflight 3\n",
		"# TYPE serve_total_ns histogram\n",
		`serve_total_ns_bucket{le="0"} 1`,
		`serve_total_ns_bucket{le="+Inf"} 6`,
		"serve_total_ns_count 6\n",
		`serve_total_ns_q{q="0.5"}`,
		`serve_total_ns_q{q="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output lacks %q:\n%s", want, out)
		}
	}
}

func TestWritePromBucketBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h.x")
	h.Observe(4) // bucket bit 3 → le = 7
	var b strings.Builder
	r.Snapshot().WriteProm(&b)
	if !strings.Contains(b.String(), `h_x_bucket{le="7"} 1`) {
		t.Errorf("bucket bit 3 should expose le=7:\n%s", b.String())
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no type", "foo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"bad name", "# TYPE 2foo counter\n2foo 1\n"},
		{"dup type", "# TYPE foo counter\n# TYPE foo gauge\nfoo 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"missing inf", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 6\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 5\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
	}
	for _, c := range cases {
		if err := LintProm([]byte(c.text)); err == nil {
			t.Errorf("%s: LintProm accepted invalid exposition:\n%s", c.name, c.text)
		}
	}
}

func TestLintPromAcceptsLabelsAndTimestamps(t *testing.T) {
	text := "# HELP foo a counter\n# TYPE foo counter\n" +
		`foo{a="x,y",b="z\"q"} 12 1700000000` + "\n"
	if err := LintProm([]byte(text)); err != nil {
		t.Fatalf("LintProm rejected valid exposition: %v", err)
	}
}
