package measure

import (
	"fmt"

	"publishing"
	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// RecoveryResult is one RecoveryReplay measurement: the virtual-time cost of
// a full crash → detect → recreate → replay → done cycle, which the paper's
// recovery cost model (§5.2, Fig 3.1) says is dominated by replaying the
// published stream.
type RecoveryResult struct {
	// Window is the virtual time from the crash to recovery-done.
	Window simtime.Time
	// Replayed is how many published messages the recorder replayed.
	Replayed uint64
}

// RecoveryReplay runs an n-message Pipeline of 48-byte bodies, unpaced,
// until the worker has an n-message published stream, crashes the worker,
// and measures the recovery window. The scenario panics unless the witness
// ends with every step exactly once, so benchmarks cannot quietly measure a
// broken recovery.
func RecoveryReplay(n int) RecoveryResult {
	cfg := publishing.DefaultConfig(3)
	// Keep the watchdogs quiet: process-crash detection is via the kernel's
	// fault notice, and ping chatter would pollute the replay window.
	cfg.WatchInterval = 10 * simtime.Minute
	c := publishing.New(cfg)
	run := publishing.Pipeline{Msgs: n, Bytes: 48}.Start(c)

	feed := 2*simtime.Minute + simtime.Time(n)*150*simtime.Millisecond
	if !c.RunUntil(run.Done, feed) {
		panic(fmt.Sprintf("measure: pipeline stalled feeding %d messages (%d delivered)", n, len(run.Output())))
	}
	c.CrashProcess(run.Worker)
	recover := simtime.Minute + simtime.Time(n)*50*simtime.Millisecond
	if !c.RunUntil(func() bool { return c.Recorder().Stats().RecoveriesCompleted >= 1 }, recover) {
		panic(fmt.Sprintf("measure: recovery of %d-message stream did not finish", n))
	}
	if err := run.Check(); err != nil {
		panic(fmt.Sprintf("measure: after recovery: %v", err))
	}
	return RecoveryResult{
		Window:   RecoveryWindow(c, run.Worker),
		Replayed: c.Recorder().Stats().MessagesReplayed,
	}
}

// RecoveryWindow returns the virtual time from pid's first crash to its
// last recovery-done in c's trace, or 0 if none followed the crash.
func RecoveryWindow(c *publishing.Cluster, pid publishing.ProcID) simtime.Time {
	var crashAt, doneAt simtime.Time
	for _, e := range c.Trace().OfKind(trace.KindCrash) {
		if e.Subject == pid.String() {
			crashAt = e.At
			break
		}
	}
	for _, e := range c.Trace().OfKind(trace.KindRecoveryDone) {
		if e.Subject == pid.String() {
			doneAt = e.At
		}
	}
	return max(doneAt-crashAt, 0)
}
