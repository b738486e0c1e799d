package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"wmsn/internal/obs"
)

// tracedBody is a small two-seed traced job: a few thousand trace lines
// from runs 0 and 1.
const tracedBody = `{"run":{"protocol":"spr","num_sensors":25,"run_for_s":30},"seeds":2,"trace":true}`

// TestConcurrentStreamersGetIdenticalBytes streams one traced job to four
// clients at once, from before it runs to its done line. Every client must
// receive the same bytes. Run under -race it also checks that streamers
// share the job's buffer without writing to it: a streamer that appended
// its newline to a line it shared with the others would race them.
func TestConcurrentStreamersGetIdenticalBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts.URL, tracedBody)
	streams := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if streams[i], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// A streamer's header line reports the state it found the job in.
	bodies := make([][]byte, len(streams))
	for i, s := range streams {
		_, body, ok := bytes.Cut(s, []byte("\n"))
		if !ok || !bytes.HasSuffix(body, []byte("\n")) {
			t.Fatalf("stream %d is not newline-framed: %.200q", i, s)
		}
		bodies[i] = body
	}
	if n := bytes.Count(bodies[0], []byte(`{"type":"trace"`)); n < 100 {
		t.Fatalf("stream has %d trace lines, want a traced job's thousands", n)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("streamers 0 and %d received different bytes (%d and %d)", i, len(bodies[0]), len(bodies[i]))
		}
	}
}

// TestTraceLinesMatchEncodingJSON checks the hand-encoded trace lines of a
// streamed job against encoding/json: each must be the bytes
// json.Marshal(StreamLine{Type: "trace", Run: run, Ev: &ev}) writes for its
// decoded run and event, run 0 included.
func TestTraceLinesMatchEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(tracedBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	perRun := map[int]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var l StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if l.Type != "trace" {
			continue
		}
		want, err := json.Marshal(StreamLine{Type: "trace", Run: l.Run, Ev: l.Ev})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sc.Bytes(), want) {
			t.Fatalf("trace line\n%s\nencoding/json writes\n%s", sc.Bytes(), want)
		}
		perRun[l.Run]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if perRun[0] == 0 || perRun[1] == 0 || len(perRun) != 2 {
		t.Fatalf("trace lines per run = %v, want both runs of the job", perRun)
	}
}

// TestAppendTraceAllocs pins the traced stream's hot path: appending a trace
// line to a job allocates nothing beyond the amortized growth of its
// buffer.
func TestAppendTraceAllocs(t *testing.T) {
	j := newJob("job-allocs", jobOptions{}, context.Background())
	ev := obs.Event{At: 1_234_567, Kind: obs.LinkTx, Node: 3, Peer: 2, Origin: 3, Seq: 17, Value: 8}
	if n := testing.AllocsPerRun(10_000, func() { j.appendTrace(1, ev, 1<<30) }); n != 0 {
		t.Fatalf("appendTrace allocates %v times per line, want 0", n)
	}
	line := AppendTraceLine(nil, 1, ev)
	if !bytes.HasPrefix(j.stream, append(line, '\n')) {
		t.Fatalf("stream starts %.120q, want the line %s", j.stream, line)
	}
}

// TestTracedStreamOrder pins what a traced job's stream promises when the
// job has several runs. The runs go in parallel, and each appends its trace
// lines as its kernel emits them, so lines of different runs interleave in
// wall-clock order and the stream as a whole may differ from one
// submission to the next. Each run's own trace lines, though, come in the
// same order every time, and result lines come in submission order. With
// "workers":1 the runs go one after another, and the whole stream is the
// same bytes every time once the job IDs are masked.
func TestTracedStreamOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stream := func(body string) []byte {
		t.Helper()
		id := submit(t, ts.URL, body)
		waitState(t, ts.URL, id, StateDone)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.ReplaceAll(b, []byte(id), []byte("JOB"))
	}
	// split returns each run's trace lines and the runs of the result lines,
	// in stream order.
	split := func(b []byte) (trace map[int][]string, results []int) {
		t.Helper()
		trace = map[int][]string{}
		for _, line := range strings.SplitAfter(string(b), "\n") {
			if line == "" {
				continue
			}
			var l StreamLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatalf("stream line %q: %v", line, err)
			}
			switch l.Type {
			case "trace":
				trace[l.Run] = append(trace[l.Run], line)
			case "result":
				results = append(results, l.Run)
			}
		}
		return trace, results
	}
	const body = `{"run":{"protocol":"spr","num_sensors":25,"run_for_s":20},"seeds":3,"trace":true%s}`

	first, second := stream(fmt.Sprintf(body, "")), stream(fmt.Sprintf(body, ""))
	traceA, resultsA := split(first)
	traceB, resultsB := split(second)
	for _, results := range [][]int{resultsA, resultsB} {
		if !slices.Equal(results, []int{0, 1, 2}) {
			t.Fatalf("result lines for runs %v, want 0, 1, 2 in order", results)
		}
	}
	for run := 0; run < 3; run++ {
		if len(traceA[run]) < 100 {
			t.Fatalf("run %d has %d trace lines, want a traced run's hundreds", run, len(traceA[run]))
		}
		if !slices.Equal(traceA[run], traceB[run]) {
			t.Fatalf("run %d: the two submissions streamed different trace sequences (%d and %d lines)",
				run, len(traceA[run]), len(traceB[run]))
		}
	}

	one := fmt.Sprintf(body, `,"workers":1`)
	if a, b := stream(one), stream(one); !bytes.Equal(a, b) {
		t.Fatalf(`two submissions with "workers":1 streamed different bytes (%d and %d)`, len(a), len(b))
	}
}
