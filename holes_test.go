package publishing

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"publishing/internal/chaos"
)

const holesPath = "testdata/holes.golden"

// knownHoles are the smallest schedules known to break the system (ROADMAP
// items 1(2) and 21), each on seed 7, three nodes and the perfect medium.
// Every one crashes the worker's node, so every run replays a recovery.
var knownHoles = []struct {
	name   string
	opt    ChaosOptions
	faults []chaos.Fault
}{
	{
		// A receiver-miss burst at full strength, then the worker's node
		// crashes inside it; one recorder.
		name: "recvmiss-crash",
		faults: []chaos.Fault{
			{Kind: chaos.KindRecvMissBurst, AtMs: 100, DurMs: 1000, Prob: 255},
			{Kind: chaos.KindNodeCrash, AtMs: 750, A: 0},
		},
	},
	{
		// The same schedule with the recovery-bound checkpoint policy.
		name: "recvmiss-crash-ckpt",
		opt:  ChaosOptions{Checkpoint: true},
		faults: []chaos.Fault{
			{Kind: chaos.KindRecvMissBurst, AtMs: 100, DurMs: 1000, Prob: 255},
			{Kind: chaos.KindNodeCrash, AtMs: 750, A: 0},
		},
	},
	{
		// A tap-miss burst at full strength under §6.3's total copy (three
		// recorders, one slot), then the worker's node crashes.
		name: "tapmiss-crash-totalcopy",
		opt:  ChaosOptions{Recorders: 3, ShardSlots: 0},
		faults: []chaos.Fault{
			{Kind: chaos.KindTapMissBurst, AtMs: 1350, DurMs: 1000, Prob: 255},
			{Kind: chaos.KindNodeCrash, AtMs: 1650, A: 0},
		},
	},
}

// holeLine is a known hole's golden line: its name, then every violation
// the checker reports, in report order.
func holeLine(name string, r chaos.Result) string {
	if r.Passed {
		return name + " passes"
	}
	var b strings.Builder
	b.WriteString(name)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n\t%s", v)
	}
	return b.String()
}

// TestKnownHoles is a ratchet on the known-failing schedules above, checked
// like the chaos census: each must fail exactly as testdata/holes.golden
// says. A fix that changes a verdict, including one that makes a case pass,
// updates the file with -update, so every change to a hole is seen.
func TestKnownHoles(t *testing.T) {
	var got strings.Builder
	got.WriteString("# Known-failing schedules (TestKnownHoles): seed 7, n=3, perfect medium.\n")
	got.WriteString("# go test -run TestKnownHoles . -update rewrites this file.\n")
	for _, h := range knownHoles {
		s := chaos.Schedule{Seed: 7, Faults: h.faults}
		got.WriteString(holeLine(h.name, chaos.Run(s, ChaosBuild(h.opt), chaos.Options{})) + "\n")
	}
	if *update {
		if err := os.WriteFile(holesPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(holesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("known holes moved; if intended, rerun with -update.\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
