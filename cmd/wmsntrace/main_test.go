package main

import (
	"bytes"
	"slices"
	"testing"

	"wmsn/internal/obs"
	"wmsn/internal/service"
)

// FuzzReadStream feeds arbitrary bytes to readStream, which must not panic.
// When the bytes also parse as a JSONL trace, its events are streamed as
// run's trace lines through service.AppendTraceLine, between the other
// line types and another run's trace, and readStream must give back exactly
// those events.
func FuzzReadStream(f *testing.F) {
	var trace bytes.Buffer
	if err := obs.WriteJSONL(&trace, []obs.Event{
		{At: 1000, Kind: obs.PacketGenerated, Node: 3, Origin: 3, Seq: 1},
		{At: 1200, Kind: obs.LinkTx, Node: 3, Peer: 2, Origin: 3, Seq: 1, Value: 8},
		{At: 3600, Kind: obs.PacketDelivered, Node: 1_000_000, Origin: 3, Seq: 1, Value: 2},
		{At: 4000, Kind: obs.FaultInjected, Node: 1_000_000, Detail: "kill-gw <0> & \"x\""},
		{At: 6000, Kind: obs.Sample, Detail: "in_flight", Value: -4},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes(), 0)
	f.Add(trace.Bytes(), 3)
	f.Add(trace.Bytes(), -1)
	f.Add([]byte(`{"type":"job","id":"job-000001","state":"queued","runs":1}
{"type":"trace","run":1,"ev":{"at":5,"kind":"link_ack","node":4,"peer":9}}
{"type":"trace","ev":null}
{"type":"done","id":"job-000001","state":"done","runs":1,"delivered":1}
`), 1)
	f.Add([]byte("{\"type\":\"trace\",\"ev\":{\"kind\":\"nope\"}}\n"), 0)
	f.Add([]byte("not json\n"), 0)
	f.Fuzz(func(t *testing.T, data []byte, run int) {
		readStream(bytes.NewReader(data), run) // must not panic

		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		other := obs.Event{At: 7, Kind: obs.LinkAck, Node: 1, Peer: 2}
		var stream []byte
		stream = append(stream, `{"type":"job","id":"job-000001","state":"queued","runs":2}`+"\n"...)
		for _, ev := range events {
			stream = append(service.AppendTraceLine(stream, run, ev), '\n')
			stream = append(service.AppendTraceLine(stream, run^1, other), '\n')
		}
		stream = append(stream, `{"type":"result","run":1,"seed":2}`+"\n"...)
		stream = append(stream, `{"type":"done","id":"job-000001","state":"done","runs":2,"delivered":2}`+"\n"...)
		got, err := readStream(bytes.NewReader(stream), run)
		if err != nil {
			t.Fatalf("readStream: %v\n%s", err, stream)
		}
		if !slices.Equal(got, events) {
			t.Fatalf("readStream(run %d) = %v, want %v", run, got, events)
		}
	})
}
