package server

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"resinfer"
	"resinfer/internal/obs"
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promFamily is one parsed metric family.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

// parsePrometheus is a strict parser for the text exposition format
// (version 0.0.4), small enough to live in a test: it enforces that
// every sample belongs to a family announced by a preceding HELP/TYPE
// pair, that label values round-trip the escaping rules, and that no
// family is declared twice.
func parsePrometheus(t *testing.T, r io.Reader) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur *promFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			if _, dup := fams[name]; dup {
				t.Fatalf("line %d: family %s declared twice", lineNo, name)
			}
			cur = &promFamily{name: name, help: help}
			fams[name] = cur
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			if cur == nil || cur.name != name {
				t.Fatalf("line %d: TYPE %s without immediately preceding HELP", lineNo, name)
			}
			if cur.typ != "" {
				t.Fatalf("line %d: TYPE %s declared twice", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", lineNo, typ)
			}
			cur.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s := parseSampleLine(t, lineNo, line)
		fam := familyOf(fams, s.name)
		if fam == nil {
			t.Fatalf("line %d: sample %s has no HELP/TYPE", lineNo, s.name)
		}
		if fam.typ == "" {
			t.Fatalf("line %d: family %s has HELP but no TYPE", lineNo, fam.name)
		}
		fam.samples = append(fam.samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, fam := range fams {
		if fam.typ == "" {
			t.Fatalf("family %s: HELP without TYPE", name)
		}
		if len(fam.samples) == 0 {
			t.Fatalf("family %s: no samples", name)
		}
	}
	return fams
}

// familyOf resolves a sample name to its family, accounting for the
// _bucket/_sum/_count suffixes of histograms.
func familyOf(fams map[string]*promFamily, sample string) *promFamily {
	if f, ok := fams[sample]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base != sample {
			if f, ok := fams[base]; ok && f.typ == "histogram" {
				return f
			}
		}
	}
	return nil
}

func parseSampleLine(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: malformed sample %q", lineNo, line)
	} else {
		s.name = rest[:i]
		if rest[i] == '{' {
			end := strings.LastIndex(rest, "}")
			if end < i {
				t.Fatalf("line %d: unterminated label set: %q", lineNo, line)
			}
			parseLabels(t, lineNo, rest[i+1:end], s.labels)
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			rest = strings.TrimSpace(rest[i+1:])
		}
	}
	for _, r := range s.name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			t.Fatalf("line %d: invalid metric name %q", lineNo, s.name)
		}
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// parseLabels decodes name="value" pairs, reversing the escaping the
// writer applied (\\, \", \n).
func parseLabels(t *testing.T, lineNo int, in string, out map[string]string) {
	t.Helper()
	for len(in) > 0 {
		eq := strings.Index(in, "=")
		if eq < 0 || len(in) < eq+2 || in[eq+1] != '"' {
			t.Fatalf("line %d: malformed labels %q", lineNo, in)
		}
		name := in[:eq]
		rest := in[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					t.Fatalf("line %d: dangling escape in %q", lineNo, in)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("line %d: bad escape \\%c", lineNo, rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			t.Fatalf("line %d: unterminated label value in %q", lineNo, in)
		}
		out[name] = val.String()
		in = rest[i+1:]
		in = strings.TrimPrefix(in, ",")
	}
}

// checkHistogram validates one histogram series: cumulative buckets are
// monotonically non-decreasing, the +Inf bucket equals _count, and _sum
// is present and finite.
func checkHistogram(t *testing.T, fam *promFamily, series string) {
	t.Helper()
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	var count, sum float64
	var haveCount, haveSum bool
	for _, s := range fam.samples {
		if labelsKey(s.labels, "le") != series {
			continue
		}
		switch s.name {
		case fam.name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil && s.labels["le"] != "+Inf" {
				t.Fatalf("%s: bad le %q", fam.name, s.labels["le"])
			}
			if s.labels["le"] == "+Inf" {
				le = math.Inf(1)
			}
			buckets = append(buckets, bucket{le: le, count: s.value})
		case fam.name + "_count":
			count, haveCount = s.value, true
		case fam.name + "_sum":
			sum, haveSum = s.value, true
		}
	}
	if !haveCount || !haveSum {
		t.Fatalf("%s: missing _count or _sum", fam.name)
	}
	if len(buckets) == 0 {
		t.Fatalf("%s: no buckets", fam.name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Fatalf("%s: bucket counts not monotonic: le=%v has %v < %v",
				fam.name, buckets[i].le, buckets[i].count, buckets[i-1].count)
		}
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.le, 1) {
		t.Fatalf("%s: final bucket is le=%v, want +Inf", fam.name, last.le)
	}
	if last.count != count {
		t.Fatalf("%s: +Inf bucket %v != _count %v", fam.name, last.count, count)
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		t.Fatalf("%s: _sum = %v", fam.name, sum)
	}
}

// labelsKey renders a sample's labels minus the given names, to group
// histogram series that differ only in le.
func labelsKey(labels map[string]string, drop ...string) string {
	var parts []string
outer:
	for k, v := range labels {
		for _, d := range drop {
			if k == d {
				continue outer
			}
		}
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestMetricsPrometheusFormat drives traffic through a sharded server
// and validates the full /metrics output with a strict parser.
func TestMetricsPrometheusFormat(t *testing.T) {
	ds, _ := testFixtures(t)
	sx, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range ds.Queries[:10] {
		var out searchResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: q, K: 5}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	fams := parsePrometheus(t, resp.Body)

	for _, want := range []string{
		"resinfer_http_requests_total",
		"resinfer_queries_total",
		"resinfer_request_duration_seconds",
		"resinfer_queue_wait_seconds",
		"resinfer_batch_size",
		"resinfer_queue_depth",
		"resinfer_shard_search_duration_seconds",
		"resinfer_shard_comparisons_total",
		"resinfer_index_points",
		"resinfer_simd_level",
		"resinfer_uptime_seconds",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
	} {
		if fams[want] == nil {
			t.Errorf("missing family %s", want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if v := fams["resinfer_queries_total"].samples[0].value; v != 10 {
		t.Errorf("resinfer_queries_total = %v, want 10", v)
	}
	// Per-shard families carry one series per shard.
	if n := len(fams["resinfer_shard_comparisons_total"].samples); n != 4 {
		t.Errorf("shard comparisons series = %d, want 4", n)
	}
	if lvl := fams["resinfer_simd_level"].samples[0].labels["level"]; lvl != resinfer.SIMDLevel() {
		t.Errorf("simd level label = %q, want %q", lvl, resinfer.SIMDLevel())
	}

	// Every histogram family checks out bucket-by-bucket, per series.
	for _, fam := range fams {
		if fam.typ != "histogram" {
			continue
		}
		series := map[string]bool{}
		for _, s := range fam.samples {
			series[labelsKey(s.labels, "le")] = true
		}
		for key := range series {
			checkHistogram(t, fam, key)
		}
	}

	// The request-duration histogram must have absorbed all 10 requests.
	fam := fams["resinfer_request_duration_seconds"]
	for _, s := range fam.samples {
		if s.name == fam.name+"_count" && s.value != 10 {
			t.Errorf("request_duration count = %v, want 10", s.value)
		}
	}
}

// TestMetricsScrapeDuringTraffic is the -race guard for the serving
// path: concurrent searches, mutations and scrapes on one server.
func TestMetricsScrapeDuringTraffic(t *testing.T) {
	ds, _ := testFixtures(t)
	sx, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var out searchResponse
				postJSON(t, ts.URL+"/search", searchRequest{Query: ds.Queries[(w*20+i)%len(ds.Queries)], K: 5}, &out)
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		parsePrometheus(t, resp.Body)
		resp.Body.Close()
	}
	wg.Wait()

	// After the dust settles the scrape and /stats agree.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, resp.Body)
	resp.Body.Close()
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	if v := fams["resinfer_queries_total"].samples[0].value; int64(v) != stats.Queries {
		t.Fatalf("scrape queries %v != /stats queries %d", v, stats.Queries)
	}
	if stats.Queries != 80 {
		t.Fatalf("queries = %d, want 80", stats.Queries)
	}
}

// TestStatsQuantilesInterpolated pins the satellite fix: /stats p50/p99
// come from the interpolated histogram, so they are no longer snapped
// to power-of-two bucket bounds.
func TestStatsQuantilesInterpolated(t *testing.T) {
	var m metrics
	m.init(obs.NewRegistry())
	// 1000 latencies spread uniformly across one bucket, (10.24ms,
	// 20.48ms]: the old log2 histogram reported the bucket's upper bound
	// for every quantile in this range — a factor-of-two error at p50.
	lo, hi := 0.01024, 0.02048
	for i := 1; i <= 1000; i++ {
		m.latency.Observe(lo + (hi-lo)*float64(i)/1000)
	}
	snap := m.snapshot()
	if snap.LatencyP50Ms < 14 || snap.LatencyP50Ms > 17 {
		t.Errorf("p50 = %vms, want ~15.4ms (interpolated)", snap.LatencyP50Ms)
	}
	if snap.LatencyP99Ms < 19.5 || snap.LatencyP99Ms > 20.5 {
		t.Errorf("p99 = %vms, want just under 20.48ms", snap.LatencyP99Ms)
	}
	if snap.LatencyP50Ms >= snap.LatencyP99Ms {
		t.Errorf("p50 %v >= p99 %v", snap.LatencyP50Ms, snap.LatencyP99Ms)
	}
	wantMean := (lo + hi) / 2 * 1e3
	if math.Abs(snap.LatencyMeanMs-wantMean) > 0.5 {
		t.Errorf("mean = %vms, want ~%vms", snap.LatencyMeanMs, wantMean)
	}
}
