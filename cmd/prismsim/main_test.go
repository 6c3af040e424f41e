package main

import (
	"bytes"
	"strings"
	"testing"

	"prism/internal/experiments"
)

// The experiment table is the single source of truth for -exp: names
// must be unique and non-empty, every runner wired, and the usage string
// derived from it must list each one.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.Experiments {
		if e.Name == "" {
			t.Error("registry entry with empty name")
		}
		if e.Name == "all" {
			t.Error(`"all" is reserved for the whole registry and cannot name an entry`)
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("registry entry %q has no runner", e.Name)
		}
	}
	if !seen["cluster"] {
		t.Error("registry is missing the cluster experiment")
	}

	usage := expNames()
	for _, e := range experiments.Experiments {
		if !strings.Contains(usage, e.Name) {
			t.Errorf("usage string %q omits experiment %q", usage, e.Name)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments.Experiments) {
		t.Fatalf(`selectExperiments("all") = %d entries, err %v; want the full registry`, len(all), err)
	}

	one, err := selectExperiments("cluster")
	if err != nil || len(one) != 1 || one[0].Name != "cluster" {
		t.Fatalf(`selectExperiments("cluster") = %v, err %v`, one, err)
	}

	if _, err := selectExperiments("fig99"); err == nil {
		t.Fatal("unknown experiment name accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "fig99") || !strings.Contains(msg, "cluster") {
		t.Fatalf("error should name the bad input and list valid experiments, got: %v", msg)
	}
}

// Bad grid knobs are rejected before any experiment runs: exit 2 and one
// line naming the value, never a panic from inside a harness. -faultrate r
// builds the ladder 0, r/4, r/2, r, so the first rate out of range is r/2
// for r = 4 and r/4 for r = -1.
func TestBadArgsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"-exp", "policies", "-policy", "bogus"}, `"bogus"`},
		{[]string{"-exp", "cluster", "-placement", "bogus"}, `"bogus"`},
		{[]string{"-exp", "failover", "-placement", "bogus"}, `"bogus"`},
		{[]string{"-exp", "chaos", "-faultrate", "4"}, "fault rate 2 outside [0, 1]"},
		{[]string{"-exp", "chaos", "-faultrate", "-1"}, "fault rate -0.25 outside [0, 1]"},
		{[]string{"-exp", "cluster", "-hosts", "-3", "-containers", "40"}, "hosts: must not be negative, got -3"},
		{[]string{"-exp", "failover", "-containers", "-5"}, "containers: must not be negative, got -5"},
		{[]string{"-exp", "cluster", "-hosts", "2", "-containers", "500"}, "500 containers exceed cluster capacity 400 (2 hosts × 200)"},
		{[]string{"-exp", "cluster", "-hosts", "2", "-containers", "30000"}, "30000 containers exceed the port space (at most 20000)"},
		{[]string{"-exp", "cluster", "-hosts", "2"}, "1000 containers exceed cluster capacity 400"},
		{[]string{"-exp", "failover", "-hosts", "1", "-containers", "10"}, "hosts: crashing host 0 leaves 0 of 1 hosts for 10 containers"},
		{[]string{"-exp", "failover", "-hosts", "2", "-containers", "300"}, "300 containers exceed cluster capacity 200 (1 hosts × 200)"},
		{[]string{"-exp", "fig3", "-duration", "-5ms"}, "-duration: must be positive, got -5ms"},
		{[]string{"-exp", "fig3", "-duration", "0s"}, "-duration: must be positive, got 0s"},
		{[]string{"-exp", "fig3", "-warmup", "-1ms"}, "-warmup: must not be negative, got -1ms"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.argv, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.argv, code, stdout.String())
		}
		if !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q; want one line containing %q", tc.argv, msg, tc.want)
		}
	}
}
