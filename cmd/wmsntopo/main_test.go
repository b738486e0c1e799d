package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsBadLengths checks that a -side or -range that is NaN,
// infinite or negative is a usage error, exit status 2 with a message and
// nothing on stdout, instead of a deployment built over it.
func TestRejectsBadLengths(t *testing.T) {
	for _, args := range [][]string{
		{"-side", "NaN"}, {"-side", "+Inf"}, {"-side", "-Inf"}, {"-side", "-5"},
		{"-range", "NaN"}, {"-range", "Inf"}, {"-range", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-n", "20"), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "must be finite and not negative") {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "20", "-side", "0", "-range", "0", "-sweep", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("zero side and range: exit status %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "gateway-count sweep") {
		t.Fatalf("zero side and range printed %q", stdout.String())
	}
}
