package experiments

import (
	"strings"
	"testing"

	"prism/internal/napi"
)

// pollTrace builds a trace from device names alone.
func pollTrace(devs ...string) PollTrace {
	t := make(PollTrace, len(devs))
	for i, d := range devs {
		t[i] = napi.PollObservation{Device: d}
	}
	return t
}

// devices returns the trace's sequence of polled device names.
func devices(t PollTrace) []string {
	out := make([]string, len(t))
	for i, o := range t {
		out[i] = o.Device
	}
	return out
}

func TestPollTraceTable(t *testing.T) {
	var tr PollTrace
	hook := tr.recorder(0)
	hook(napi.PollObservation{Device: "eth", PollList: []string{"br", "eth"}})
	hook(napi.PollObservation{Device: "br", PollList: []string{"eth", "veth"}})
	tbl := tr.Table("Vanilla")
	for _, want := range []string{"Vanilla", "Iter.", "eth", "[br eth]", "[eth veth]"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if order := devices(tr); len(order) != 2 || order[0] != "eth" || order[1] != "br" {
		t.Errorf("order = %v", order)
	}
}

func TestPollTraceLimit(t *testing.T) {
	var tr PollTrace
	hook := tr.recorder(2)
	for i := 0; i < 5; i++ {
		hook(napi.PollObservation{Device: "eth"})
	}
	if len(tr) != 2 {
		t.Errorf("recorded %d, want 2", len(tr))
	}
}

func TestInterleaved(t *testing.T) {
	tests := []struct {
		name  string
		trace PollTrace
		want  bool
	}{
		{"fig6a vanilla", pollTrace("eth", "br", "eth", "veth", "br", "eth"), true},
		{"fig6b prism", pollTrace("eth", "br", "veth", "eth", "br", "veth"), false},
		{"no veth at all", pollTrace("eth", "br", "eth", "br"), false},
		{"empty", nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.trace.Interleaved("eth", "veth"); got != tt.want {
				t.Errorf("Interleaved = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStreamlined(t *testing.T) {
	stages := []string{"eth", "br", "veth"}
	if !pollTrace("eth", "br", "veth", "eth", "br").Streamlined(stages...) {
		t.Error("strict cycle not recognized")
	}
	if pollTrace("eth", "br", "eth").Streamlined(stages...) {
		t.Error("interleaved order recognized as streamlined")
	}
	if PollTrace(nil).Streamlined(stages...) {
		t.Error("empty order recognized")
	}
	if pollTrace("eth").Streamlined() {
		t.Error("empty stages recognized")
	}
}
