package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestJobProgressEndpoint drives a sweep to completion and checks the live
// watermark endpoint: per-run detail, done flags, and agreement between the
// final watermark's delivery count and the stream's results.
func TestJobProgressEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts.URL, quickBody)
	waitState(t, ts.URL, id, StateDone)

	code, pb := getJSON[progressBody](t, ts.URL+"/v1/jobs/"+id+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: HTTP %d", code)
	}
	if pb.ID != id || pb.State != StateDone {
		t.Fatalf("progress header = %s/%s, want %s/done", pb.ID, pb.State, id)
	}
	p := pb.Progress
	if p.Runs != 3 || p.DoneRuns != 3 || len(p.PerRun) != 3 {
		t.Fatalf("progress totals = %+v, want 3 runs all done with per-run detail", p)
	}
	var sum uint64
	for _, r := range p.PerRun {
		if !r.Done {
			t.Errorf("run %d not marked done: %+v", r.Run, r)
		}
		sum += r.Deliveries
	}
	if sum != p.Deliveries || p.Deliveries == 0 {
		t.Errorf("per-run deliveries sum %d vs total %d (want equal, nonzero)", sum, p.Deliveries)
	}
	if p.Events == 0 || p.SimTimeS <= 0 {
		t.Errorf("watermark missing events/time: %+v", p)
	}

	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope/progress"); code != http.StatusNotFound {
		t.Errorf("unknown job progress: HTTP %d, want 404", code)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: structurally valid
// before any run, and carrying per-protocol histogram families with
// consistent counts after one.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("cold /metrics: HTTP %d", code)
	}
	if err := validateExposition(body); err != nil {
		t.Fatalf("cold /metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "wmsnd_jobs_submitted_total 0") {
		t.Errorf("cold scrape missing zero submitted counter:\n%s", body)
	}

	id := submit(t, ts.URL, quickBody)
	waitState(t, ts.URL, id, StateDone)

	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := validateExposition(body); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"wmsnd_jobs_submitted_total 1",
		"wmsnd_jobs_completed_total 1",
		"wmsnd_runs_delivered_total 3",
		`wmsn_runs_total{protocol="spr"} 3`,
		`wmsn_packets_delivered_total{protocol="spr"}`,
		`wmsn_delivery_latency_seconds_bucket{protocol="spr",le="+Inf"}`,
		`wmsn_delivery_latency_seconds_count{protocol="spr"}`,
		`wmsn_failover_latency_seconds_count{protocol="spr"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	// Two scrapes of quiescent state must be byte-identical (sorted labels,
	// no timestamps).
	_, again := getBody(t, ts.URL+"/metrics")
	if body != again {
		t.Error("consecutive scrapes of identical state differ")
	}
}

// TestProgressStreamHeartbeat submits a long job with a fast heartbeat and
// checks that {"type":"progress"} lines appear on the stream while it runs,
// carrying a non-degenerate watermark. The job takes about 0.4 s, and 5 s
// under -race, on 2 vCPUs: some twenty 20 ms heartbeats, far inside the
// 60 s default job deadline.
func TestProgressStreamHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"run":{"protocol":"spr","num_sensors":300,"side":300,"sensor_range":40,
		"report_interval_s":0.1,"run_for_s":20},"progress_s":0.02}`
	resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readStreamLines(t, resp.Body)

	var beats, results int
	var sawWatermark bool
	for _, l := range lines {
		switch l.Type {
		case "progress":
			beats++
			if l.Progress == nil {
				t.Fatal("progress line without payload")
			}
			if l.Progress.Events > 0 {
				sawWatermark = true
			}
		case "result":
			results++
		}
	}
	if beats == 0 {
		t.Fatal("no progress heartbeat lines on the stream")
	}
	if !sawWatermark {
		t.Error("every heartbeat carried a zero watermark")
	}
	if results != 1 {
		t.Errorf("stream carried %d results, want 1", results)
	}
	if last := lines[len(lines)-1]; last.Type != "done" || last.State != StateDone {
		t.Errorf("terminal line = %+v, want done/done", last)
	}
}

// TestProgressSpecValidation pins the request-side guard on the heartbeat:
// 0 turns it off, every interval from minProgressS up to the maximum
// deadline is kept as given, and just outside either end is refused.
func TestProgressSpecValidation(t *testing.T) {
	l := Limits{}.withDefaults()
	top := l.MaxDeadline.Seconds()
	for _, s := range []float64{0, minProgressS, 0.02, 0.05, top} {
		o, err := RunRequest{Run: &RunSpec{Protocol: "spr"}, ProgressS: s}.expand(l)
		if err != nil {
			t.Fatalf("progress_s %g refused: %v", s, err)
		}
		if want := time.Duration(s * float64(time.Second)); o.progress != want {
			t.Fatalf("progress_s %g: heartbeat every %v, want %v", s, o.progress, want)
		}
	}
	for _, s := range []float64{-1, minProgressS / 2, top + 1} {
		_, err := RunRequest{Run: &RunSpec{Protocol: "spr"}, ProgressS: s}.expand(l)
		if err == nil || !strings.Contains(err.Error(), "progress_s") {
			t.Fatalf("progress_s %g: error %v, want one naming progress_s", s, err)
		}
	}
}

// TestValidateExposition exercises the validator itself on pathological
// inputs, so the CI check it backs can be trusted.
func TestValidateExposition(t *testing.T) {
	bad := map[string]string{
		"sample without TYPE": "foo_total 3\n",
		"malformed line":      "# TYPE x counter\nx{,} nope\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_sum 9\nh_count 5\n",
		"inf bucket != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\n" + "h_sum 9\nh_count 5\n",
	}
	for name, text := range bad {
		if err := validateExposition(text); err == nil {
			t.Errorf("%s: validator accepted\n%s", name, text)
		}
	}
	good := "# HELP a ok\n# TYPE a counter\na 1\n" +
		"# TYPE h histogram\n" +
		`h_bucket{p="x",le="1"} 2` + "\n" + `h_bucket{p="x",le="+Inf"} 4` + "\n" +
		`h_sum{p="x"} 9` + "\n" + `h_count{p="x"} 4` + "\n"
	if err := validateExposition(good); err != nil {
		t.Errorf("validator rejected well-formed text: %v", err)
	}
}
