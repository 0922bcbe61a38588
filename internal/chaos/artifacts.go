package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// dumpArtifacts writes a failing schedule's post-mortem bundle into a
// directory named after the seed and schedule token, so the printed path
// doubles as the reproducer: report.txt (the checker report), trace.log
// (whatever the trace log retained — the flight-recorder ring on bounded
// runs), monitor.txt (the online monitor's report, when the system runs
// one), and metrics.txt (the final metrics snapshot).
func dumpArtifacts(root string, sys System, s Schedule, res CheckResult) (string, error) {
	token := s.Hex()
	if len(token) > 24 {
		token = token[:24]
	}
	dir := filepath.Join(root, fmt.Sprintf("chaos-seed%d-%s", s.Seed, token))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	write := func(name string, b []byte) error {
		return os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	if err := write("report.txt", []byte(res.Report)); err != nil {
		return "", err
	}
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "# trace tail: %d events retained, %d dropped by the flight-recorder bound\n",
		len(sys.Trace().Events()), sys.Trace().Dropped())
	sys.Trace().Dump(&tb)
	if err := write("trace.log", tb.Bytes()); err != nil {
		return "", err
	}
	if mon := sys.Monitor(); mon != nil {
		if err := write("monitor.txt", []byte(mon.Report())); err != nil {
			return "", err
		}
	}
	var mb bytes.Buffer
	if err := sys.Metrics().Snapshot().WriteText(&mb); err == nil {
		if err := write("metrics.txt", mb.Bytes()); err != nil {
			return "", err
		}
	}
	return dir, nil
}
