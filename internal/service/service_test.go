package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// newTestServer starts a service behind httptest and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// quickBody is a small three-seed sweep that finishes in well under a second.
const quickBody = `{"run":{"protocol":"spr","num_sensors":25,"run_for_s":10},"seeds":3}`

// longBody is a dense, chatty, hour-long run: many wall-clock seconds of
// work uncanceled, so cancellation paths have something to interrupt.
const longBody = `{"run":{"protocol":"spr","num_sensors":300,"side":300,"sensor_range":40,
	"report_interval_s":0.1,"run_for_s":3600}}`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, v
}

// submit posts a job and returns its accepted ID.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	resp, b := postJSON(t, base+"/v1/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, b)
	}
	var acc submitAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" {
		t.Fatalf("submit: empty job ID in %s", b)
	}
	return acc.ID
}

// waitState polls a job's status until it reaches any of the wanted states.
func waitState(t *testing.T, base, id string, want ...string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, st := getJSON[Status](t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q, want one of %v", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readStreamLines consumes an entire JSONL stream body.
func readStreamLines(t *testing.T, r io.Reader) []StreamLine {
	t.Helper()
	var lines []StreamLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var l StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestSubmitStatusAndStreamReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts.URL, quickBody)
	st := waitState(t, ts.URL, id, StateDone)
	if st.Runs != 3 || st.Delivered != 3 || st.Errors != 0 {
		t.Fatalf("status = %+v, want 3/3 delivered with no errors", st)
	}

	// A finished job's stream replays in full from the buffer.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	lines := readStreamLines(t, resp.Body)
	resp.Body.Close()
	if lines[0].Type != "job" || lines[0].ID != id {
		t.Fatalf("first line = %+v, want the job header", lines[0])
	}
	last := lines[len(lines)-1]
	if last.Type != "done" || last.State != StateDone || last.Delivered != 3 {
		t.Fatalf("terminal line = %+v", last)
	}

	// Results arrive in ascending run order with the exact bytes a direct
	// library run produces.
	var results []StreamLine
	for _, l := range lines {
		if l.Type == "result" {
			results = append(results, l)
		}
	}
	if len(results) != 3 {
		t.Fatalf("got %d result lines, want 3", len(results))
	}
	for i, l := range results {
		if l.Run != i {
			t.Fatalf("result %d is for run %d; delivery must be in submission order", i, l.Run)
		}
		direct, err := scenario.RunE(scenario.Config{
			Seed: int64(i), Protocol: scenario.SPR, NumSensors: 25, RunFor: 10 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(direct.Metrics.Snapshot())
		got, _ := json.Marshal(l.Metrics)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d metrics over HTTP diverge from a direct run:\n got %s\nwant %s", i, got, want)
		}
		if l.Seed != int64(i) {
			t.Fatalf("run %d reported seed %d", i, l.Seed)
		}
	}
}

func TestSubmitValidationRejects(t *testing.T) {
	svc, ts := newTestServer(t, Config{Limits: Limits{MaxNodes: 100, MaxRunsPerJob: 4}})
	cases := []struct {
		name, body, wantIn string
	}{
		{"unknown field", `{"run":{"protocol":"spr","bogus":1}}`, "bogus"},
		{"empty", `{}`, "empty request"},
		{"both forms", `{"run":{"protocol":"spr"},"runs":[{"protocol":"spr"}]}`, "not both"},
		{"too many seeds", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":1},"seeds":9}`, "run limit"},
		{"too many nodes", `{"run":{"protocol":"spr","num_sensors":500,"run_for_s":1}}`, "nodes exceeds"},
		{"horizon", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":90000}}`, "horizon"},
		{"shards", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":1,"shards":2}}`, "shards"},
		{"bad fault kind", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":1,"faults":[{"kind":"meteor","at_s":1}]}}`, "unknown kind"},
		{"negative workers", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":1},"workers":-1}`, "negative"},
		{"deadline too long", `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":1},"deadline_s":100000}`, "deadline_s"},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/runs", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", tc.name, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), tc.wantIn) {
			t.Fatalf("%s: body %s does not mention %q", tc.name, b, tc.wantIn)
		}
	}
	stats := svc.Stats()
	if stats.RejectedInvalid != uint64(len(cases)) {
		t.Fatalf("rejected_invalid = %d, want %d", stats.RejectedInvalid, len(cases))
	}
	if stats.Submitted != 0 {
		t.Fatalf("submitted = %d after rejections, want 0", stats.Submitted)
	}
}

func TestMultiErrorValidationListsEverything(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"run":{"protocol":"spr","num_sensors":20,"run_for_s":90000},"workers":-1,"deadline_s":-5}`
	resp, b := postJSON(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, frag := range []string{"horizon", "workers", "deadline_s"} {
		if !strings.Contains(string(b), frag) {
			t.Fatalf("joined error %s is missing the %q problem", b, frag)
		}
	}
}

func TestSubmitShedsWhenQueueFull(t *testing.T) {
	svc, ts := newTestServer(t, Config{QueueDepth: 1, Schedulers: 1})
	// One long job occupies the scheduler, the next fills the queue; within
	// three submissions at least one must shed with 429 + Retry-After.
	var accepted []string
	shed := 0
	for i := 0; i < 3; i++ {
		resp, b := postJSON(t, ts.URL+"/v1/runs", longBody)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var acc submitAccepted
			if err := json.Unmarshal(b, &acc); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, acc.ID)
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After header")
			}
		default:
			t.Fatalf("submission %d: status %d, body %s", i, resp.StatusCode, b)
		}
	}
	if shed == 0 {
		t.Fatal("queue depth 1 + busy scheduler accepted 3 long jobs without shedding")
	}
	// Shed jobs must not appear anywhere in the lifecycle counters.
	stats := svc.Stats()
	if stats.Shed != uint64(shed) || stats.Submitted != uint64(len(accepted)) {
		t.Fatalf("stats = %+v, want shed %d and submitted %d", stats, shed, len(accepted))
	}
	// Cancel the accepted jobs so cleanup is prompt, and verify DELETE works.
	for _, id := range accepted {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitState(t, ts.URL, id, StateCanceled)
	}
	if got := svc.Stats(); got.Canceled != uint64(len(accepted)) || got.Queued != 0 || got.Active != 0 {
		t.Fatalf("after cancel: stats = %+v", got)
	}
}

func TestInlineStreamCarriesTraceSeriesResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"run":{"protocol":"spr","num_sensors":25,"run_for_s":30},"trace":true,"series_s":10}`
	resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines := readStreamLines(t, resp.Body)
	resp.Body.Close()
	counts := map[string]int{}
	for _, l := range lines {
		counts[l.Type]++
	}
	if counts["job"] != 1 || counts["done"] != 1 || counts["result"] != 1 {
		t.Fatalf("stream framing counts = %v", counts)
	}
	if counts["trace"] == 0 {
		t.Fatal("trace:true produced no trace lines")
	}
	if counts["series"] != 1 {
		t.Fatalf("series_s produced %d series lines, want 1", counts["series"])
	}
	for _, l := range lines {
		if l.Type == "trace" && l.Ev == nil {
			t.Fatal("trace line without an embedded event")
		}
		if l.Type == "series" && (l.Series == nil || len(l.Series.Rows) == 0) {
			t.Fatalf("series line is empty: %+v", l)
		}
	}
}

func TestTraceCapTruncatesWithNotice(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: Limits{MaxTraceLines: 10}})
	body := `{"run":{"protocol":"spr","num_sensors":25,"run_for_s":30},"trace":true}`
	resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines := readStreamLines(t, resp.Body)
	resp.Body.Close()
	traces, notices := 0, 0
	for _, l := range lines {
		switch l.Type {
		case "trace":
			traces++
		case "notice":
			notices++
			if !strings.Contains(l.Error, "truncated") {
				t.Fatalf("notice = %+v", l)
			}
		}
	}
	if traces != 10 || notices != 1 {
		t.Fatalf("got %d trace lines and %d notices, want 10 and 1", traces, notices)
	}
}

func TestDeleteCancelsRunningJobPromptly(t *testing.T) {
	svc, ts := newTestServer(t, Config{QueueDepth: 4, Schedulers: 1})
	id := submit(t, ts.URL, longBody)
	waitState(t, ts.URL, id, StateRunning)
	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, id, StateCanceled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to reach the kernel", elapsed)
	}
	if stats := svc.Stats(); stats.Canceled != 1 || stats.Active != 0 {
		t.Fatalf("stats after cancel = %+v", stats)
	}
}

func TestStreamDisconnectCancelsOnlyItsJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{QueueDepth: 4, Schedulers: 2})
	victim := submit(t, ts.URL, longBody)
	bystander := submit(t, ts.URL, longBody)
	waitState(t, ts.URL, victim, StateRunning)
	waitState(t, ts.URL, bystander, StateRunning)

	// Attach a stream to the victim, read its header, then vanish.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+victim+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading stream header: %v", err)
	}
	cancel()
	resp.Body.Close()

	st := waitState(t, ts.URL, victim, StateCanceled)
	if st.State != StateCanceled {
		t.Fatalf("victim state = %q", st.State)
	}
	// The bystander must be untouched by its neighbor's disconnect.
	if st := waitState(t, ts.URL, bystander, StateRunning); st.State != StateRunning {
		t.Fatalf("bystander state = %q after victim disconnect", st.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().ClientDisconnects != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("client_disconnects = %d, want 1", svc.Stats().ClientDisconnects)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Clean up the bystander.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+bystander, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts.URL, bystander, StateCanceled)
}

func TestDetachedStreamDisconnectKeepsJobRunning(t *testing.T) {
	svc, ts := newTestServer(t, Config{QueueDepth: 4, Schedulers: 1})
	id := submit(t, ts.URL, longBody)
	waitState(t, ts.URL, id, StateRunning)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream?detach=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	time.Sleep(200 * time.Millisecond) // give a wrongful cancel time to land
	if st := waitState(t, ts.URL, id, StateRunning); st.State != StateRunning {
		t.Fatalf("detached disconnect canceled the job (state %q)", st.State)
	}
	if svc.Stats().ClientDisconnects != 0 {
		t.Fatal("detached disconnect counted as a canceling disconnect")
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts.URL, id, StateCanceled)
}

func TestHealthzStatsAndProtocols(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, health := getJSON[map[string]any](t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	code, stats := getJSON[Stats](t, ts.URL+"/stats")
	if code != http.StatusOK || stats.QueueDepth != 64 {
		t.Fatalf("stats: %d %+v", code, stats)
	}
	code, protos := getJSON[map[string][]string](t, ts.URL+"/v1/protocols")
	if code != http.StatusOK || len(protos["protocols"]) == 0 {
		t.Fatalf("protocols: %d %v", code, protos)
	}
	found := false
	for _, p := range protos["protocols"] {
		if p == "spr" {
			found = true
		}
	}
	if !found {
		t.Fatalf("protocol list %v is missing spr", protos["protocols"])
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	// A one-second wall-clock budget against an hour-long dense run.
	body := strings.TrimSuffix(strings.TrimSpace(longBody), "}") + `,"deadline_s":1}`
	id := submit(t, ts.URL, body)
	st := waitState(t, ts.URL, id, StateCanceled, StateFailed, StateDone)
	if st.State != StateCanceled {
		t.Fatalf("deadline-limited job ended %q, want canceled", st.State)
	}
	if svc.Stats().Canceled != 1 {
		t.Fatalf("stats = %+v", svc.Stats())
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	svc := New(Config{QueueDepth: 8, Schedulers: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts.URL, longBody))
	}
	svc.Close()
	for _, id := range ids {
		j := svc.job(id)
		if j == nil {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.status(); st.State != StateCanceled {
			t.Fatalf("job %s state after Close = %q, want canceled", id, st.State)
		}
	}
	stats := svc.Stats()
	if stats.Queued != 0 || stats.Active != 0 {
		t.Fatalf("gauges nonzero after Close: %+v", stats)
	}
	if stats.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3", stats.Canceled)
	}
	// Submissions after Close are refused.
	resp, _ := postJSON(t, ts.URL+"/v1/runs", quickBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d, want 503", resp.StatusCode)
	}
}

func TestFaultSpecRoundTrips(t *testing.T) {
	// A fault plan over HTTP must act on the simulation: killing the only
	// gateway early must crater delivery versus the same run without faults.
	_, ts := newTestServer(t, Config{})
	base := `{"run":{"protocol":"spr","num_sensors":40,"num_gateways":1,"run_for_s":60%s}}`
	healthyID := submit(t, ts.URL, fmt.Sprintf(base, ""))
	faultyID := submit(t, ts.URL, fmt.Sprintf(base, `,"faults":[{"kind":"kill_gateway","at_s":5,"gateway":0}]`))
	waitState(t, ts.URL, healthyID, StateDone)
	waitState(t, ts.URL, faultyID, StateDone)
	delivered := func(id string) float64 {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		for _, l := range readStreamLines(t, resp.Body) {
			if l.Type == "result" {
				return float64(l.Metrics.Delivered)
			}
		}
		t.Fatalf("job %s stream had no result line", id)
		return 0
	}
	h, f := delivered(healthyID), delivered(faultyID)
	if f >= h {
		t.Fatalf("kill_gateway fault did not reduce delivery: healthy %v, faulty %v", h, f)
	}
}
