package publishing_test

// The paper's figures are printed by cmd/experiments and cmd/pubsim and
// quoted verbatim in EXPERIMENTS.md, which TestDocBlocks checks; the
// virtual-time results of cluster scenarios are TestExperimentNumbers'
// block there. Wall-clock results of the whole system belong to
// `go run ./bench`. What is left here is one host-cost row.

import (
	"testing"

	"publishing/internal/measure"
)

// BenchmarkRecoveryReplay16384 prices measure.RecoveryReplay's longest
// stream in host time: the whole scenario's wall time (feed included) over
// the messages replayed. The recovering worker's input queue gets as deep as
// the stream is long, so anything in the kernel that costs the queue's depth
// per message shows here as ns/msg rising with n. The scenario's virtual
// window is a TestExperimentNumbers row.
func BenchmarkRecoveryReplay16384(b *testing.B) {
	var res measure.RecoveryResult
	for i := 0; i < b.N; i++ {
		res = measure.RecoveryReplay(16384)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Replayed), "host_ns_per_replayed_msg")
}
