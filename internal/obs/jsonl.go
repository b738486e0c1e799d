package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// AppendJSON appends ev's JSON object to dst and returns the extended slice.
// The bytes are exactly those json.Marshal(ev) writes: the fields in
// declaration order, peer, origin, seq, val and detail left out when zero,
// the kind as its name, and strings escaped as encoding/json escapes them.
// FuzzEventJSONMatchesEncodingJSON holds it to that. With room in dst it
// allocates nothing, which is what keeps a traced run's JSONL sink and
// wmsnd's trace lines off the heap.
func (ev Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"at":`...)
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, ev.Kind.String())
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendUint(dst, uint64(ev.Node), 10)
	if ev.Peer != 0 {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Peer), 10)
	}
	if ev.Origin != 0 {
		dst = append(dst, `,"origin":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Origin), 10)
	}
	if ev.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Seq), 10)
	}
	if ev.Value != 0 {
		dst = append(dst, `,"val":`...)
		dst = strconv.AppendInt(dst, ev.Value, 10)
	}
	if ev.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, ev.Detail)
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Every name and detail the
// simulator emits is printable ASCII that needs no escape, so it is copied
// as it is; any other string goes through encoding/json, which escapes
// quotes, backslashes, control bytes, <, > and &, invalid UTF-8 and
// U+2028/U+2029 its own way.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// JSONL streams every observed event to a writer as one JSON object per
// line — the trace-file format cmd/wmsntrace consumes. Each event is
// encoded by Event.AppendJSON into one reused line buffer and written to a
// buffered writer, so steady-state observation allocates nothing. The
// caller must Flush (or Close the underlying file after Flush) when the run
// ends.
type JSONL struct {
	bw   *bufio.Writer
	line []byte
	err  error
}

// NewJSONL returns a sink streaming events to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{bw: bufio.NewWriter(w)}
}

// Observe implements Sink. The first write error is latched and reported by
// Flush; later events are dropped so a dead disk cannot wedge a simulation.
func (j *JSONL) Observe(ev Event) {
	if j.err != nil {
		return
	}
	j.line = append(ev.AppendJSON(j.line[:0]), '\n')
	_, j.err = j.bw.Write(j.line)
}

// Flush drains the buffer and returns the first error seen, if any.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.bw.Flush()
}

// WriteJSONL serializes events to w in the trace-file format. This is the
// batch counterpart of the JSONL sink, used for recorder dumps and captured
// per-run traces.
func WriteJSONL(w io.Writer, events []Event) error {
	j := NewJSONL(w)
	for _, ev := range events {
		j.Observe(ev)
	}
	return j.Flush()
}

// ReadJSONL parses a trace file previously written by the JSONL sink or
// WriteJSONL. Blank lines are skipped; a malformed line fails with its line
// number so truncated traces are diagnosable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}
