package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exp_golden.txt")

// goldenRuns are small-scale -exp invocations covering each way a flag
// reaches a harness argument: a Params field, -policy, -faultrate, and the
// cluster scale flags on both multi-host experiments.
var goldenRuns = [][]string{
	{"-exp", "fig6", "-warmup", "5ms"},
	{"-exp", "policies", "-policy", "headonly", "-warmup", "5ms", "-duration", "25ms"},
	{"-exp", "chaos", "-faultrate", "0.2", "-warmup", "5ms", "-duration", "25ms"},
	{"-exp", "cluster", "-hosts", "4", "-containers", "40", "-placement", "pack", "-warmup", "5ms", "-duration", "25ms"},
	{"-exp", "failover", "-hosts", "4", "-containers", "40", "-placement", "spread", "-warmup", "5ms", "-duration", "30ms"},
}

const expGolden = "testdata/exp_golden.txt"

// TestExpStdoutGolden pins prismsim's stdout for each golden run: the
// flag-to-argument mapping and the table rendering, byte for byte, at 1,
// 2 and 4 workers. Regenerate with:
//
//	go test ./cmd/prismsim -run TestExpStdoutGolden -update-golden
func TestExpStdoutGolden(t *testing.T) {
	want, err := os.ReadFile(expGolden)
	if err != nil && !*updateGolden {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	for _, workers := range []string{"1", "2", "4"} {
		var got bytes.Buffer
		for _, argv := range goldenRuns {
			var stderr bytes.Buffer
			fmt.Fprintf(&got, "$ prismsim %s\n", strings.Join(argv, " "))
			if code := run(append(argv, "-parallel", workers), &got, &stderr); code != 0 {
				t.Fatalf("prismsim %v -parallel %s exited %d: %s", argv, workers, code, stderr.String())
			}
		}
		if *updateGolden {
			if err := os.WriteFile(expGolden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-parallel %s: stdout diverges from %s\ngot:\n%s", workers, expGolden, got.String())
		}
	}
}
