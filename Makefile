# Tier-1 verification plus the race check for the concurrent packages.
# `make check` is what CI (and pre-commit discipline) runs.

GO ?= go

.PHONY: check vet nopar noregime nohave noseg build test race monitor sweep-verify chaos shards fuzz bench bench-json bench-recovery bench-sim bench-recorder scale-smoke sweep

check: vet build test race monitor sweep-verify chaos shards fuzz scale-smoke bench-sim bench-recorder

vet: nopar noregime nohave noseg
	$(GO) vet ./...

# There is one event executor (DESIGN.md "One executor"). The names below
# are the seam the deleted parallel engine ran through; restoring any of it
# piecemeal fails here.
nopar:
	! grep -rnE 'ParWorkers|LPClock|simtime\.Engine|Lookahead\(\)|TickSched' --include='*.go' .

# There is one transport regime (DESIGN.md "Steady-state wire efficiency")
# and the knobs below each had one value in use; they are constants now.
noregime:
	! grep -rnE 'AdaptiveRTO|MinRTO|MaxRTO|RetryBudget|DupCacheSize|FlushEveryMessage|MonitorStallWindow' --include='*.go' .

# The recorder's tap state is indexed by stream (DESIGN.md "Recorder
# database"): a per-sender watermark, not a set of every id recorded, and a
# pending queue per destination, not one map ranged over on every ack. The
# set survives only as stream_model_test.go's reference.
nohave:
	! grep -rnE 'have +map\[frame\.MsgID\]bool|range r\.pending' --include='*.go' --exclude='*_test.go' internal/recorder

# There is one stable-store engine (DESIGN.md "Storage engine"): the paged
# store, held as *stablestore.Paged with no interface or backend switch. The
# names below are the seam the deleted segmented engine ran through.
noseg:
	! grep -rnE 'Segmented|BackendSegment|SegmentBytes|SegmentStore|BatchObserver|group_commit_batch' --include='*.go' .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep engine runs simulations on real goroutines and the stable store
# claims concurrency safety (starhub drives it from multiple connections):
# both stay race-checked, plus a fast subset of the single-threaded core so
# accidental shared state in new instrumentation gets caught early. simtime
# is in the subset for the scheduler's reference-model test. demos is in it
# for its hand-off tests: only the goroutine running the cluster resumes a
# program's coroutine, and -race is what checks every resume and kill is
# ordered after the kernel's last write.
race:
	$(GO) test -race ./internal/sweep ./internal/stablestore \
		./internal/metrics ./internal/trace ./internal/frame ./internal/simtime \
		./internal/demos

# The online invariant monitor: its unit tests plus the cluster-level
# integration tests (duplicate flagged before quiescence, report determinism,
# monitor passivity), race-checked because the monitor hangs off the trace
# observer that every subsystem's hot path crosses.
monitor:
	$(GO) test -race ./internal/monitor
	$(GO) test -race -run 'TestMonitor' -count=1 .

# The seeded fault-schedule sweep plus the invariant checker, race-checked:
# the harness runs baseline and faulted clusters on real goroutines via
# t.Parallel, so the sweep doubles as a race test of the whole stack.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 .

# The sharded replicated recorder path, race-checked: shard-map determinism
# and rebalance-minimality, follower promotion mid-replay, the sharded chaos
# baselines (replay-basis-union invariant, mid-handoff recorder crash), and
# the sharded monitor-passivity fingerprint. The recorders run on the
# single-threaded simulated clock, but the chaos harness drives baseline and
# faulted clusters on real goroutines, so -race has teeth here too.
shards:
	$(GO) test -race ./internal/recorder
	$(GO) test -race -run 'TestShardMap|TestFollowerPromotion|TestChaosSharded|TestMonitorPassivitySharded|TestMultiRec' -count=1 .

# Time-boxed native fuzzing of the wire codecs (frame, replay batch, chaos
# schedule, the recorder's per-message records), of the stable store's page
# file as Open reads it, of the kernel's ring input queue against its slice
# model, of the event scheduler against its sorted-slice model, and of the
# recorder's stream-indexed tap state against its per-message model. Long
# exploratory runs are manual (`go test -fuzz X -fuzztime 10m
# ./internal/frame`); this keeps the corpora exercised and catches
# regressions the checked-in seeds reach quickly. Page files are whole 4 KB
# pages, and minimizing one for the default 60 s stalls the run, so the
# store's minimization is capped by count.
fuzz:
	$(GO) test ./internal/frame -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s
	$(GO) test ./internal/demos -run '^$$' -fuzz FuzzReplayBatchDecode -fuzztime 10s
	$(GO) test ./internal/demos -run '^$$' -fuzz FuzzMsgQueue -fuzztime 10s
	$(GO) test ./internal/simtime -run '^$$' -fuzz FuzzScheduler -fuzztime 10s
	$(GO) test ./internal/chaos -run '^$$' -fuzz FuzzChaosSchedule -fuzztime 10s
	$(GO) test ./internal/stablestore -run '^$$' -fuzz FuzzPagedOpen -fuzztime 10s -fuzzminimizetime 200x
	$(GO) test ./internal/recorder -run '^$$' -fuzz FuzzStoredRecord -fuzztime 10s
	$(GO) test ./internal/recorder -run '^$$' -fuzz FuzzRecorderStream -fuzztime 10s

# The parallel-vs-serial sweep determinism proof, without rewriting
# BENCH_sweep.json (use `make sweep` to refresh the trajectory file).
sweep-verify:
	$(GO) run ./cmd/experiments -verify

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Print the perf-trajectory snapshot for BENCH_baseline.json. benchjson's -o
# refuses to clobber an existing trajectory file, so regenerating the
# committed baseline is an explicit `make bench-json OUT=BENCH_baseline.json`
# after deleting it — or an -after update, never a silent overwrite.
bench-json:
ifdef OUT
	$(GO) test -bench 'BenchmarkFrameEncodeDecode|BenchmarkStableStoreAppend|BenchmarkRecorderPublish|BenchmarkClusterThroughput' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -o $(OUT)
else
	$(GO) test -bench 'BenchmarkFrameEncodeDecode|BenchmarkStableStoreAppend|BenchmarkRecorderPublish|BenchmarkClusterThroughput' -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# Refresh the "after" half of the recovery-path trajectory (BENCH_recovery.json
# keeps the pre-batching numbers as its "before") and print the deltas.
bench-recovery:
	$(GO) test -bench 'BenchmarkEndToEndRecovery|BenchmarkRecoveryReplay' -run '^$$' . \
		| $(GO) run ./cmd/benchjson -after BENCH_recovery.json batched, windowed replay pipeline

# The recorder-availability trajectory: the 64-node crash->recovered cycle
# against the classic single recorder vs the sharded replicated trio —
# virtual recovery window plus the record count on the replay-serving
# recorder (the whole database vs the worker-shard leader's partition). The
# default (check-time) run re-measures and prints the snapshot without
# touching the committed BENCH_recorder.json; regenerate with
# `make bench-recorder OUT=BENCH_recorder.json` after deleting the old file.
bench-recorder:
ifdef OUT
	$(GO) test -bench 'BenchmarkRecoverySingleRecorder64|BenchmarkRecoveryShardUnion64' -benchtime 2x -run '^$$' . | $(GO) run ./cmd/benchjson -o $(OUT) recovery from the shard union vs the single-recorder funnel at 64 nodes
else
	$(GO) test -bench 'BenchmarkRecoverySingleRecorder64|BenchmarkRecoveryShardUnion64' -benchtime 2x -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# The big-cluster simulator-throughput trajectory: events per wall second
# and virtual seconds per wall second on the workload-driven broadcast
# scenario at 8/64/256/1024 nodes, plus the monitored variant (see
# EXPERIMENTS.md). The default (check-time) run measures once
# per size and prints the snapshot without touching the committed
# BENCH_sim.json; refresh the trajectory's "after" half with
# `make bench-sim OUT=BENCH_sim.json` (the committed before half — the
# pre-overhaul hot loop — is preserved).
bench-sim:
ifdef OUT
	$(GO) test -bench BenchmarkSimThroughput -benchtime 2x -run '^$$' . 		| $(GO) run ./cmd/benchjson -after $(OUT) hot-loop overhaul; observer-ring batched monitoring
else
	$(GO) test -bench BenchmarkSimThroughput -run '^$$' . | $(GO) run ./cmd/benchjson
endif

# The 256-node scale smokes: same-seed double-run byte-identity of metrics
# and recorder databases, and the chaos-schedule sweep at cluster scale
# (including the 1024-node run). All are testing.Short()-guarded so tier-1
# `go test -short ./...` skips them; this target (wired into check) runs
# them in full.
scale-smoke:
	$(GO) test -run 'TestScaleDeterminism256|TestChaosSmoke256|TestChaosSmoke1024' -count=1 -v .

# Regenerate BENCH_sweep.json (parallel-vs-serial determinism proof).
sweep:
	$(GO) run ./cmd/experiments -sweep
