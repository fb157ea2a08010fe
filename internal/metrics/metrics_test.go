package metrics

import (
	"strings"
	"testing"

	"topkmon/internal/wire"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Count(NodeToServer, wire.KindProbeReply, 24)
	c.Count(NodeToServer, wire.KindProbeReply, 24)
	c.Count(Broadcast, wire.KindHalt, 8)
	if c.Total() != 3 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.ByChannel(NodeToServer) != 2 || c.ByChannel(Broadcast) != 1 {
		t.Error("channel counts wrong")
	}
	if c.ByKind("probe-reply") != 2 || c.ByKind("halt") != 1 {
		t.Error("kind counts wrong")
	}
	if c.MaxBits() != 24 {
		t.Errorf("MaxBits = %d", c.MaxBits())
	}
}

func TestZeroValueCounters(t *testing.T) {
	var c Counters
	c.Count(Broadcast, wire.KindHalt, 1)
	if c.Total() != 1 {
		t.Error("zero-value Counters must be usable")
	}
}

func TestRoundTracking(t *testing.T) {
	c := NewCounters()
	c.Rounds(5)
	c.EndStep()
	c.Rounds(3)
	c.EndStep()
	if c.MaxRoundsPerStep() != 5 {
		t.Errorf("MaxRoundsPerStep = %d", c.MaxRoundsPerStep())
	}
	if c.Steps() != 2 {
		t.Errorf("Steps = %d", c.Steps())
	}
	c.Rounds(9) // current open step counts too
	if c.MaxRoundsPerStep() != 9 {
		t.Errorf("open-step rounds ignored: %d", c.MaxRoundsPerStep())
	}
}

func TestCountersSub(t *testing.T) {
	c := NewCounters()
	// Each layered counter holds a different amount at the copy and gains
	// another after it, so a Sub that mixes two of them up cannot pass.
	layered := []struct {
		name string
		inc  func()
		get  func(Counters) int64
	}{
		{"IndexFallbacks", c.IndexFallback, Counters.IndexFallbacks},
		{"DroppedMsgs", c.DroppedMsg, Counters.DroppedMsgs},
		{"DupMsgs", c.DupMsg, Counters.DupMsgs},
		{"Retries", c.Retry, Counters.Retries},
		{"Resyncs", c.Resync, Counters.Resyncs},
		{"StaleSteps", c.StaleStep, Counters.StaleSteps},
	}
	c.Count(NodeToServer, wire.KindProbeReply, 8)
	c.Count(ServerToNode, wire.KindHalt, 8)
	for i, l := range layered {
		for range 2*i + 1 {
			l.inc()
		}
	}
	c.Rounds(2)
	c.EndStep()
	before := *c

	c.Count(NodeToServer, wire.KindProbeReply, 1)
	c.Count(Broadcast, wire.KindHalt, 40)
	c.Count(Broadcast, wire.KindHalt, 1)
	c.Count(ServerToNode, wire.KindHalt, 1)
	for i, l := range layered {
		for range i + 1 {
			l.inc()
		}
	}
	c.Rounds(7)
	c.EndStep()
	c.Rounds(1)
	c.EndStep()

	d := c.Sub(before)
	for i, l := range layered {
		if got := l.get(d); got != int64(i+1) {
			t.Errorf("Sub: %s = %d, want %d", l.name, got, i+1)
		}
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"Total", d.Total(), 4},
		{"node→server", d.ByChannel(NodeToServer), 1},
		{"server→node", d.ByChannel(ServerToNode), 1},
		{"broadcast", d.ByChannel(Broadcast), 2},
		{"probe-reply", d.ByKind("probe-reply"), 1},
		{"halt", d.ByKind("halt"), 3},
		// The high-water marks and the step count are the later value's.
		{"MaxRoundsPerStep", d.MaxRoundsPerStep(), 7},
		{"MaxBits", int64(d.MaxBits()), 40},
		{"Steps", d.Steps(), 3},
	} {
		if tc.got != tc.want {
			t.Errorf("Sub: %s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestIndexFallbackCounting(t *testing.T) {
	c := NewCounters()
	c.IndexFallback()
	c.IndexFallback()
	if c.IndexFallbacks() != 2 {
		t.Errorf("IndexFallbacks = %d, want 2", c.IndexFallbacks())
	}
	s1 := *c
	c.IndexFallback()
	if d := c.Sub(s1); d.IndexFallbacks() != 1 {
		t.Errorf("Sub.IndexFallbacks = %d, want 1", d.IndexFallbacks())
	}
	c.Reset()
	if c.IndexFallbacks() != 0 {
		t.Errorf("Reset left IndexFallbacks = %d", c.IndexFallbacks())
	}
}

func TestFaultCounters(t *testing.T) {
	c := NewCounters()
	c.DroppedMsg()
	c.DroppedMsg()
	c.DupMsg()
	c.Retry()
	c.Retry()
	c.Retry()
	c.Resync()
	c.StaleStep()
	if c.DroppedMsgs() != 2 || c.DupMsgs() != 1 || c.Retries() != 3 ||
		c.Resyncs() != 1 || c.StaleSteps() != 1 {
		t.Errorf("fault counters wrong: drop=%d dup=%d retry=%d resync=%d stale=%d",
			c.DroppedMsgs(), c.DupMsgs(), c.Retries(), c.Resyncs(), c.StaleSteps())
	}
	s1 := *c
	c.DroppedMsg()
	c.Resync()
	d := c.Sub(s1)
	if d.DroppedMsgs() != 1 || d.DupMsgs() != 0 || d.Retries() != 0 ||
		d.Resyncs() != 1 || d.StaleSteps() != 0 {
		t.Errorf("Sub fault counters wrong: %+v", d)
	}
	c.Reset()
	if c.DroppedMsgs()|c.DupMsgs()|c.Retries()|c.Resyncs()|c.StaleSteps() != 0 {
		t.Error("Reset left fault counters nonzero")
	}
}

func TestChannelString(t *testing.T) {
	if NodeToServer.String() == "" || ServerToNode.String() == "" || Broadcast.String() == "" {
		t.Error("channels must render")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", int64(12))
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Errorf("table missing content:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Errorf("CSV rows wrong: %q", csv)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "longheader")
	tb.AddRow("xxxxxxxxxx", 1)
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("header and separator must align")
	}
}
