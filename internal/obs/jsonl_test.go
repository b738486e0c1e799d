package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// awkwardDetails mix plain details with strings that encoding/json does
// not copy as they are: HTML characters, quotes and backslashes, control
// bytes, invalid UTF-8, the two line separators JavaScript treats as
// newlines, and other non-ASCII text.
var awkwardDetails = []string{
	"", "loss", "kill-gateway", `a"b\c`, "<script>&</script>", "tab\there\nline\r",
	"\x00\x01\x08\x0c\x1f\x7f", "bad \xff utf8 \xc3", "sep\u2028par\u2029", "ünï©ødé",
}

// FuzzEventJSONMatchesEncodingJSON holds Event.AppendJSON to json.Marshal
// byte for byte, over every kind byte and arbitrary field values, and reads
// each line back through ReadJSONL.
func FuzzEventJSONMatchesEncodingJSON(f *testing.F) {
	for k := 0; k < 256; k++ {
		f.Add(int64(k)*1_000_003, uint8(k), uint32(k), uint32(k%3), uint32(k%5), uint32(k%7), int64(k%11)-5,
			awkwardDetails[k%len(awkwardDetails)])
	}
	f.Add(int64(-1<<63), uint8(0), uint32(1<<32-1), uint32(1<<32-1), uint32(1<<32-1), uint32(1<<32-1), int64(1<<63-1), "x")
	f.Fuzz(func(t *testing.T, at int64, kind uint8, node, peer, origin, seq uint32, val int64, detail string) {
		ev := Event{At: sim.Time(at), Kind: Kind(kind), Node: packet.NodeID(node), Peer: packet.NodeID(peer),
			Origin: packet.NodeID(origin), Seq: seq, Value: val, Detail: detail}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := ev.AppendJSON([]byte("prefix"))
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendJSON(%#v)\n got %s\nwant prefix%s", ev, got, want)
		}
		if Kind(kind) >= numKinds || !utf8.ValidString(detail) {
			return // not a kind ReadJSONL accepts, or a detail JSON cannot carry
		}
		back, err := ReadJSONL(bytes.NewReader(append(want, '\n')))
		if err != nil || len(back) != 1 || back[0] != ev {
			t.Fatalf("ReadJSONL(%s) = %v, %v; want %#v", want, back, err, ev)
		}
	})
}

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL, which must not panic.
// Whatever it parses must survive WriteJSONL and a second read unchanged,
// and WriteJSONL must write what a json.Encoder writes for the same events.
func FuzzReadJSONL(f *testing.F) {
	var trace bytes.Buffer
	if err := WriteJSONL(&trace, sampleEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add([]byte("\n  \n{\"at\":1,\"kind\":\"sample\",\"node\":0,\"detail\":\"\\u003c\\ud800\\n\"}\n"))
	f.Add([]byte(`{"at":1,"kind":"bogus","node":2}`))
	f.Add([]byte("{broken\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out, want bytes.Buffer
		if err := WriteJSONL(&out, events); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&want)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSONL wrote\n%s\njson.Encoder writes\n%s", out.Bytes(), want.Bytes())
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back, events) {
			t.Fatalf("re-read %v, want %v", back, events)
		}
	})
}

// TestJSONLObserveAllocs pins the traced hot path: once its line buffer has
// grown, the JSONL sink encodes and writes an event without allocating.
func TestJSONLObserveAllocs(t *testing.T) {
	sink := NewJSONL(io.Discard)
	events := sampleEvents()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		sink.Observe(events[i%len(events)])
		i++
	}); n != 0 {
		t.Fatalf("JSONL.Observe allocates %v times per event, want 0", n)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONLLatchesWriteError checks that the first write error stops the
// sink and comes back from Flush.
func TestJSONLLatchesWriteError(t *testing.T) {
	w := &failingWriter{}
	sink := NewJSONL(w)
	ev := Event{Kind: Sample, Detail: strings.Repeat("x", 5000)}
	sink.Observe(ev) // larger than the buffer: written through at once
	sink.Observe(ev)
	if err := sink.Flush(); err != io.ErrShortWrite {
		t.Fatalf("Flush = %v, want the latched %v", err, io.ErrShortWrite)
	}
	if w.calls != 1 {
		t.Fatalf("writer called %d times after its first failure, want 1 call in all", w.calls)
	}
}

type failingWriter struct{ calls int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, io.ErrShortWrite
}
