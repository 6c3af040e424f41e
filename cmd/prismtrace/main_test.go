package main

import (
	"bytes"
	"strings"
	"testing"
)

// A negative -iters is rejected before anything runs: exit 2 and one
// line naming the value, never a slice-bounds panic from the clip.
func TestNegativeItersExitTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-iters", "-1"}, &stdout, &stderr)
	msg := stderr.String()
	if code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want exit 2 and no output", code, stdout.String())
	}
	if !strings.Contains(msg, "-iters -1") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
		t.Errorf("stderr %q; want one line naming -iters -1", msg)
	}
}
