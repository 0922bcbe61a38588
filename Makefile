# Tier-1 verification plus the race check for the concurrent packages.
# `make check` is what CI (and pre-commit discipline) runs.

GO ?= go

.PHONY: check vet nopar noregime derived nohave noseg noclone nopool nopeertables nomsgmaps onecopy varints onemark onefailover onepipeline noquarantine nosweep notrajectory nograce tapcore onewindow nogob onecodec nocompact bundlebytes replaybytes keyids onecount pageframes arrrefs onerecord oneharness onewatchdog replayallocs build test race monitor chaos shards fuzz bench scale-smoke examples shuffle

check: vet build test race monitor chaos shards fuzz scale-smoke examples shuffle

vet: nopar noregime derived nohave noseg noclone nopool nopeertables nomsgmaps onecopy varints onemark onefailover onepipeline noquarantine nosweep notrajectory nograce tapcore onewindow nogob onecodec nocompact bundlebytes replaybytes keyids onecount pageframes arrrefs onerecord oneharness onewatchdog replayallocs
	$(GO) vet ./...

# There is one event executor (DESIGN.md "One executor"). The names below
# are the seam the deleted parallel engine ran through; restoring any of it
# piecemeal fails here.
nopar:
	! grep -rnE 'ParWorkers|LPClock|simtime\.Engine|Lookahead\(\)|TickSched' --include='*.go' .

# There is one transport regime (DESIGN.md "Steady-state wire efficiency")
# and the knobs below each had one value in use; they are constants now.
noregime:
	! grep -rnE 'AdaptiveRTO|MinRTO|MaxRTO|RetryBudget|DupCacheSize|FlushEveryMessage|MonitorStallWindow|FlushDelay|DefaultStallWindow' --include='*.go' .

# A setting the cluster already knows is derived, not configured (DESIGN.md
# "One home per setting"): recorder acks follow the kernels' transport,
# whose recorder-ack hold is one duration publishing.New derives, the
# recorder list is one rank-ordered slice, a kernel publishes when a
# recorder listens, the trace is tuned through Cluster.Trace(), and each
# recorder default is written once, in recorder.DefaultConfig. The names
# below are the knobs and the re-defaulting helpers they replaced.
derived:
	! grep -rnE 'TraceWriter|cfg\.FlightRecorder|EmitRecorderAcks|NeedRecorderAck|RecorderAckTimeout|NoticeProcs|env\.Publishing|replayWindow\(\)|replayBudget\(\)|routeRepeats\(\)' --include='*.go' --exclude='*_test.go' .

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

# A frame handed to a medium is never written again (DESIGN.md "Simulator
# performance"): media and delivery hand every listener the frame that was
# sent, and the transport attaches each transmission's ack block to the
# frame it is about to send, never detaching one from a frame already sent.
# A body is read-only from Send on (DESIGN.md "Delivered bodies
# are read-only"): a retransmission copies the retained frame's header only,
# and the recorder's tap keeps the wire body, until the acknowledgement
# writes it into a page, instead of copying it into a pooled buffer. A
# message's frame lives in its flight (DESIGN.md "A
# message's frame lives in its flight"): SendGuaranteed always copies the
# caller's header, so there is no second, ownership-taking entry point.
# Frames come back (DESIGN.md "Frames come back"): a flushed Ack frame
# copies its records into the array it is reused with, not a fresh clone.
noclone:
	! grep -n 'Clone()' internal/lan/perfect.go internal/lan/ether.go internal/lan/ring.go internal/lan/star.go internal/lan/lan.go
	! grep -rn detachAcks internal/transport
	! grep -rn 'fl\.f\.Clone()' internal/transport
	! grep -rn 'append(sm\.Body\[:0\]' internal/recorder
	! grep -rn SendGuaranteedOwned --include='*.go' .
	! grep -rn 'slices\.Clone(recs' internal/transport

# Frames come back (DESIGN.md "Frames come back"): each endpoint keeps its
# own free lists, so same-seed runs reuse memory identically and the golden
# table's parallel clusters share nothing. A sync.Pool, or a package-level
# variable named for a free list or pool, in the transport or the media
# fails here.
nopool:
	! grep -rn 'sync\.Pool' --include='*.go' internal/transport internal/lan
	awk '/^var \(/ { v = 1; next } v && /^\)/ { v = 0 } (v || /^var /) && tolower($$0) ~ /free|pool/ { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' internal/transport/*.go internal/lan/*.go

# Per-peer transport state is two tables (DESIGN.md "Dense per-destination
# tables"): each destination's send state by value, and one record per
# sender. The names below are the per-peer tables they replaced; bringing
# one back piecemeal, and with it an allocation at first contact, fails here.
nopeertables:
	! grep -rnE '\b(ackPend|perDest)\b|destTable\[\*(rtoState|rxStream|ackPending)\]' --include='*.go' --exclude='*_test.go' internal/transport

# Nothing is hashed per message on the send path (DESIGN.md "Frames come
# back", "Storage engine", "Recorder database"): a frame carries the slot of
# the endpoint's sent table that owns it, the open units are the in-flight
# set, the store keeps one record per key, and a mark search compares one
# packed integer. The recorder's tap reads one tap
# record per process, and the store appends through key handles, holds its
# pages in a slice, and takes no lock (starhub serializes its calls). The
# names below are the lookups and the lock they replaced.
nomsgmaps:
	! grep -rnE 'owned +map\[|inflight +map\[' --include='*.go' --exclude='*_test.go' internal/transport
	! grep -rnE 'invalidSeqs +map\[string\]map' --include='*.go' internal/stablestore
	! grep -n BinarySearchFunc internal/frame/frame.go
	! grep -rnE '(pending|preArrivals|preLastSent) +map\[' --include='*.go' --exclude='*_test.go' internal/recorder
	! grep -rnE 'sync\.Mutex|pages +map\[' --include='*.go' --exclude='*_test.go' internal/stablestore

# A recorded message has one copy (DESIGN.md "Recorder database"): its
# record in the stable store. A process's stream is an index of store refs,
# not a log of messages, and a bundle member's body is not cloned to outlive
# the bundle, since nothing keeps it past the ack that writes its record.
onecopy:
	! grep -n '\]frame\.BundleRec' internal/recorder/tap/arrlog.go
	! grep -rn 'bytes\.Clone(f\.Body)' --include='*.go' --exclude='*_test.go' internal/recorder

# Records are packed varints read by one parser each (DESIGN.md "Storage
# engine", "Recorder database"): the store's header is kind, key id, seq
# and data length, read only by parseHeader, and a message record
# stores neither its stream nor its arrival seq, which its key and header
# say. The names below are the fixed-offset header reads and the fixed
# message layout they replaced.
varints:
	! grep -rn 'BigEndian\.Uint16(b\[1:3\])' --include='*.go' internal/stablestore
	! grep -rn storedMsgFixedLen --include='*.go' internal/recorder

# "Has this process taken this message?" has one answer (DESIGN.md "One
# acceptance mark"): the per-sender acceptance mark, held by the kernel in
# memory, carried by checkpoints, and read by the recorder to trim and fence.
# The names below are the three guards it replaced: the transport's id
# cache, the kernel's replayed-id set and the recorder's trim debt.
onemark:
	! grep -rnE 'dupCache|replayed +map\[|noteReplayed|trimDebt' --include='*.go' --exclude='*_test.go' .

# A recorder fails over one way (DESIGN.md "Multiple recorders: one shard
# map"): every cluster has a shard map, §6.3's total copy is its one-slot
# case, and a replica acts for a slot once every replica ahead of it is
# silent. The names below are the claim-query arbitration it replaced and
# the classic-mode branches that ran it.
onefailover:
	! grep -rnE 'arbitrate|higherPeers|peerQuery|peerWilling|Shards (==|!=) nil' --include='*.go' --exclude='*_test.go' internal/recorder

# A recorder runs one failure detector (DESIGN.md "Multiple recorders: one
# shard map"): one watchdog table, keyed by station, holds every processing
# node and every sibling recorder, one tick pings them all, and a crash
# rebuilds the table whole. The names below are the second, peer-only
# watchdog it replaced; a second ping send site is a second detector.
onewatchdog:
	! grep -rnE 'tickPeerWatch|peerWatch +\[\]' --include='*.go' --exclude='*_test.go' internal/recorder
	test $$(grep -rE 'Body: *demos\.PingBody' --include='*.go' --exclude='*_test.go' internal/recorder | wc -l) -le 1

# Recovery allocates only what it keeps (DESIGN.md "Recovery path"): a
# replay batch's header is carved from the recorder's slab and every batch
# passes its sender's one reply link, so neither is made per batch, and a
# checkpoint formats no trace line while the trace is off: every Log.Add in
# CheckpointNow and applyCheckpoint sits right under an Enabled() guard.
replayallocs:
	! grep -nE 'make\(\[\]byte, 0, frame\.BatchHdrLen\)|&frame\.Link\{' internal/recorder/replay.go
	! awk '/^func \(k \*Kernel\) CheckpointNow\(|^func \(r \*Recorder\) applyCheckpoint\(/ {f = 1} f && /^}/ {f = 0} f && /[lL]og\.Add\(/ && prev !~ /Enabled\(\)/ {print FILENAME ":" FNR ": " $$0; bad = 1} {prev = $$0} END {exit !bad}' internal/demos/kernelproc.go internal/recorder/recorder.go

# Scenarios are built from two traffic shapes (DESIGN.md "Simulation
# testing"): scenario.go's producer → worker → witness Pipeline and gen →
# sink Stream. A program outside it that registers its own producer,
# worker, witness, gen or sink is a copy of one; bench/ (frozen) and
# examples/ (which teach the API) keep theirs.
onepipeline:
	! grep -rnE 'RegisterMachine\("(chaos-)?(worker|witness|sink)"|RegisterProgram\("(chaos-)?(producer|gen)"' --include='*.go' --exclude='*_test.go' --exclude=scenario.go --exclude-dir=bench --exclude-dir=examples .

# There is one exactly-once rule (DESIGN.md "Simulation testing"): the
# online monitor's incarnation-aware count, which the chaos checker and
# -explain read. The names below are the quarantine of the false positive it
# retired and the cross-check that kept two copies of the rule in step.
noquarantine:
	! grep -rnE 'Quarantined|CHAOS_RUN_QUARANTINED|monitor-agree' --include='*.go' .

# There is one determinism oracle (DESIGN.md "Simulator performance"):
# Cluster.Fingerprint and the golden table testdata/fingerprints.golden that
# TestGoldenFingerprints checks. The names below are the seed sweep it
# replaced, whose digest file nothing gated.
nosweep:
	! grep -rnE 'internal/sweep|BENCH_sweep|sweepout' --include='*.go' .

# Each number has one owner (DESIGN.md "Who owns which number"): wall-clock
# results belong to `go run ./bench`, virtual-time results to
# TestExperimentNumbers. The names below are the second benchmark system it
# replaced: trajectory files nothing compared and the benchmarks that fed
# them.
notrajectory:
	! grep -rnE 'benchjson|BENCH_(baseline|sim|recovery|recorder)|BenchmarkSimThroughput|BenchmarkEndToEndRecovery' --include='*.go' .

# A chaos run ends when the system has settled (DESIGN.md "Simulation
# testing"): SettleChaos derives the stop from the schedule and the
# cluster, and every chaos drive goes through it. The names below are the
# fixed grace period it replaced and the hand-rolled drive loops that
# copied it.
nograce:
	! grep -rnE 'chaos\.DefaultOptions|opt\.Grace|opt\.MaxRun|RunUntil\(sc\.Work\.Done' --include='*.go' --exclude-dir=chaos .

# The recorder's stream decisions live in one package, internal/recorder/tap
# (DESIGN.md "Recorder database"), which the recorder's frame path reaches
# them through. It decides with no medium, trace, store, transport or
# kernel, and holds no scheduler: those are the recorder's, around it.
tapcore:
	! $(GO) list -deps ./internal/recorder/tap | grep -xE 'publishing/internal/(lan|trace|stablestore|transport|demos)'
	! grep -rn 'simtime\.Scheduler' internal/recorder/tap

# One transmission unit is in flight from a processor (DESIGN.md
# "Steady-state wire efficiency", §4.3.3): the endpoint's open unit, or
# none. The names below are the window knob that let more than one open and
# the per-destination unit count, admission numbering and open-unit list it
# needed.
onewindow:
	awk '/^type Config struct/ { c = 1 } c && /^}/ { c = 0 } c && $$1 == "Window" { print FILENAME ":" FNR ": " $$0; bad = 1 } END { exit bad }' internal/transport/transport.go
	! grep -rn 'Transport\.Window' --include='*.go' .
	! grep -rnE '\b(units|adm|admitted)\b +(int|uint)|\.(units|adm|admitted)\b|open +\[\]\*txUnit' --include='*.go' --exclude='*_test.go' internal/transport

# There is one binary codec (DESIGN.md "One binary codec"): frame.Coder
# codes every body, record and program state in the module as varints,
# tests and examples included, and every wire layout in its wire mode. A
# gob import anywhere, or the cached-gob package that once served the
# kernel, fails here.
nogob:
	! grep -rl '"encoding/gob"' --include='*.go' .
	! grep -rn 'internal/gobx' --include='*.go' .

# The wire is coded by frame.Coder too (DESIGN.md "One binary codec"): its
# wire mode codes the frame with its ack block, the bundle and replay
# records, the batch header and checkpoint chunk, the recorder-ack id list,
# the chaos schedule, starhub's TCP length prefix and keysearch's program
# argument, one code function each, run both ways. A fixed-width field
# packed or read by hand at an offset, anywhere outside coder.go, fails
# here; bench/ (frozen) is not matched.
onecodec:
	! grep -rnE 'binary\.(BigEndian|LittleEndian)' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | grep -v '^\./internal/frame/coder\.go:'

# The store keeps what it is given (DESIGN.md "Storage engine"): no record
# is dropped or moved, so a Ref is exact and a replay reads its snapshot
# with nothing held back. The names below are the compaction it replaced,
# the invalidation marks that fed it and the invalidations a replay held
# back until it ended. slices.Compact and bench/'s InvalidateSeqs, a
# documented no-op, are not matched.
nocompact:
	! grep -rnE '\) Compact\(|\.Compact\(\)|\bInvalidate\(|InvalidateKey|seqSet|dropKeyPage|Compacted|bs\.dropped' --include='*.go' --exclude='*_test.go' .

# A Bundle holds its records (DESIGN.md "Steady-state wire efficiency"):
# the transport fills Frame.Recs with its members' headers, sharing their
# bodies, and receivers and taps read the records. The bundle body's byte
# layout is the wire codec only, codeBundle and codeBundleRec, which
# internal/frame runs in AppendEncode and DecodeInto; bench/ (frozen) times
# the codec itself through BeginBundle, AppendBundleRec, FinishBundle and
# DecodeBundle. Building or parsing a bundle body anywhere else would copy
# every member again.
bundlebytes:
	! grep -rnE '\b(codeBundle|codeBundleRec|DecodeBundle|AppendBundleRec|BeginBundle|FinishBundle)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=frame --exclude-dir=bench .

# A replay batch carries its records (DESIGN.md "Recovery path"): the
# recorder fills Frame.Recs with records sharing their bodies with its store
# pages, and the kernel queues them as they are. The record layout is the
# wire codec only, codeReplayRec, which codeMsgBody runs after a records
# batch's header, in internal/frame beside the bundle's. Those names, or a
# record type of the layout's own, anywhere else would copy every replayed
# body into a buffer and out again.
replaybytes:
	! grep -rnE '\b(codeReplayRec|codeMsgBody)\(|\bReplayRec\b' --include='*.go' --exclude-dir=frame .

# Each record names its key once (DESIGN.md "Storage engine"): a record's
# header carries its key's id, and the key's name is written once, as the
# data of the key's key-name record. A record header that spells out a key
# name again, or a parsed header that holds one, fails here.
keyids:
	! grep -rnE 'append\([^,]+, *[A-Za-z.]*([Kk]ey|name)\.\.\.\)|\bh\.key\b|\bkey +\[\]byte' --include='*.go' --exclude='*_test.go' internal/stablestore

# Each counter has one owner (DESIGN.md "Observability"): a field of its
# subsystem's Stats struct, which internal/metrics names by one rule when a
# snapshot is taken. The names below are the hand-written collector lines
# that spelled every field out again, and the registry's counter
# instrument, snapshot diff and JSON export, which nothing used.
onecount:
	! grep -rnE 'emit\("|Registry\) Counter\(|Snapshot\) Sub\(|WriteJSON' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .

# A sealed page holds its records, not 4 KB (DESIGN.md "Storage engine"):
# regular pages are laid end to end in the store's arena. A page-sized
# buffer made for each page fails here.
pageframes:
	! grep -rnE 'make\(\[\]byte, *0, *PageSize\)' --include='*.go' --exclude='*_test.go' internal/stablestore

# An arrival costs the recorder its record ref (DESIGN.md "Recorder
# database"): the arrival log's entry is where the store holds the record,
# which holds the message's id, and the log keeps the arrival seqs as runs.
# An entry that holds an id or an arrival seq again fails here.
arrrefs:
	awk '/^type ArrEntry[ =]/ { d = 1 } d && /frame\.MsgID|ArrSeq/ { print FILENAME ":" FNR ": " $$0; bad = 1 } d && !/\{ *$$/ && (/^}/ || /^type /) { d = 0 } END { exit bad }' internal/recorder/tap/arrlog.go

# A message is one record from tap to replay (DESIGN.md "Recorder
# database"): frame.BundleRec is what the tap holds pending, what the store
# record codes, and what the replay batch, the handoff blob and the debugger
# carry. A process id's text is read by frame.ParseProcID alone, and a
# retransmission is known by its attempt number (trace.Event.Seq), not its
# wording. The names below are the message copies, the scanf parse and the
# prefix test they replaced; bench/ (frozen) is not matched.
onerecord:
	! grep -rnE 'type (storedMsg|ReplayMsg)\b|func tapMsg\b|Sscanf\([^)]*"p%d|HasPrefix\(e\.Detail' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .

# A chaos run is named by its ChaosOptions and its chaos.Schedule, and
# driven on the *Cluster and *PipelineRun the root package's harness builds
# (DESIGN.md "Simulation testing"). internal/chaos is only the schedule
# language: it imports no monitor, recorder, kernel, medium, trace or
# metrics. The names below are the seam the harness once ran through: an
# interface over the cluster, one over the pipeline, and a build closure.
oneharness:
	! grep -rnE 'chaos\.(System|BuildFunc|Scenario|Targets|CheckConfig)\b|\bChaosBuild\b|type (System|Workload) interface|type BuildFunc func' --include='*.go' --exclude='*_test.go' .
	! $(GO) list -deps ./internal/chaos | grep -xE 'publishing/internal/(monitor|recorder|demos|lan|trace|metrics)'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The golden table runs its rows as independent clusters on parallel
# goroutines, and starhub drives one stable store from multiple connections
# under its hub lock (the store itself takes none): both stay race-checked,
# plus a fast subset
# of the single-threaded core so accidental shared state in new
# instrumentation gets caught early. simtime is in the subset for the
# scheduler's reference-model test. demos is in it for its hand-off tests:
# only the goroutine running the cluster resumes a program's coroutine, and
# -race is what checks every resume and kill is ordered after the kernel's
# last write. transport and lan are in it for their free lists: each
# endpoint reuses the frames its medium hands back, and nothing may be
# shared between the golden table's parallel clusters.
race:
	$(GO) test -race -run TestGoldenFingerprints .
	$(GO) test -race ./internal/stablestore ./cmd/starhub \
		./internal/metrics ./internal/trace ./internal/frame ./internal/simtime \
		./internal/demos ./internal/transport ./internal/lan

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

# The replicated recorder path, race-checked: shard-map determinism and
# rebalance-minimality, follower promotion mid-replay, the sharded chaos
# baselines (replay-basis-union invariant, mid-handoff recorder crash), the
# sharded monitor-passivity fingerprint, and multirec_test.go's §6.3 claims
# on the one-slot map. The recorders run on the single-threaded simulated
# clock, but the chaos harness drives baseline and faulted clusters on real
# goroutines, so -race has teeth here too.
MULTIREC = TestTrafficSurvivesOneRecorderCrash|TestAllRecordersDownSuspendsTraffic|TestSecondaryRecorderPerformsRecovery|TestArbitrationSingleRecoverer|TestThirdReplicaRecoversAfterTwoCrash|TestRecordersStayConsistent|TestRestartCatchUp|TestMultiRecorderDeterminism

shards:
	$(GO) test -race ./internal/recorder/...
	$(GO) test -race -run 'TestShardMap|TestFollowerPromotion|TestChaosSharded|TestMonitorPassivitySharded|$(MULTIREC)' -count=1 .

# Time-boxed native fuzzing of the wire codecs (the frame, the replay
# batch and the chaos schedule, each frame.Coder wire-mode code functions)
# and of the recorder's per-message records, of the process id's text
# (frame.ParseProcID reads exactly what ProcID.String prints), of the
# stable store's page file as Open reads it and of its one record-header
# parser, of the
# kernel's ring input queue against its slice model, of the event scheduler
# against its sorted-slice model, and of the recorder's tap core, driven
# directly, against its per-message model. Long exploratory runs are manual
# (`go test -fuzz X -fuzztime 10m ./internal/frame`); this keeps the
# corpora exercised and catches regressions the checked-in seeds reach
# quickly. Page files are whole 4 KB pages, and minimizing one for the
# default 60 s stalls the run, so the store's minimization is capped by
# count. The checkpoint image's marks, which the recorder trims and fences
# streams by, are fuzzed too, and so is each type frame.Coder codes as
# varints (the CODECS lists). For every codec, wire or varint, an input
# that decodes must be the one encoding of what it decodes to.
DEMOS_CODECS = FuzzCtlMsg FuzzNotice FuzzCtlReply FuzzQueryResponse FuzzProcSpec FuzzCheckpointImage \
	FuzzRouteUpdate FuzzProcMgrState FuzzMemSchedState FuzzNameSvcState FuzzNameReq
RECORDER_CODECS = FuzzProcMeta FuzzCkMeta FuzzPeerMsg FuzzHandoffProc
TXN_CODECS = FuzzBegin FuzzOutcome FuzzPrepare FuzzVote FuzzDecide FuzzDecided FuzzRead FuzzReadReply \
	FuzzParticipantState FuzzCoordState

fuzz:
	$(GO) test ./internal/frame -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s
	$(GO) test ./internal/frame -run '^$$' -fuzz FuzzReplayBatchDecode -fuzztime 10s
	$(GO) test ./internal/frame -run '^$$' -fuzz FuzzParseProcID -fuzztime 5s
	$(GO) test ./internal/demos -run '^$$' -fuzz FuzzMsgQueue -fuzztime 10s
	$(GO) test ./internal/demos -run '^$$' -fuzz FuzzCheckpointMarks -fuzztime 10s
	$(GO) test ./internal/simtime -run '^$$' -fuzz FuzzScheduler -fuzztime 10s
	$(GO) test ./internal/chaos -run '^$$' -fuzz FuzzChaosSchedule -fuzztime 10s
	$(GO) test ./internal/stablestore -run '^$$' -fuzz FuzzPagedOpen -fuzztime 10s -fuzzminimizetime 200x
	$(GO) test ./internal/stablestore -run '^$$' -fuzz FuzzRecordHeader -fuzztime 10s
	$(GO) test ./internal/recorder -run '^$$' -fuzz FuzzStoredRecord -fuzztime 10s
	$(GO) test ./internal/recorder -run '^$$' -fuzz FuzzRecorderStream -fuzztime 10s
	for f in $(DEMOS_CODECS); do $(GO) test ./internal/demos -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s || exit 1; done
	for f in $(RECORDER_CODECS); do $(GO) test ./internal/recorder -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s || exit 1; done
	for f in $(TXN_CODECS); do $(GO) test ./internal/txn -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s || exit 1; done

# BenchmarkRecoveryReplay16384's host cost per replayed message, the one
# root benchmark: the paper's figures are EXPERIMENTS.md's generated blocks,
# checked by tier-1 TestDocBlocks. Informational: nothing gates on it.
# Wall-clock claims about the whole system are made with `go run ./bench`
# (bench/README.md).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The 256-node scale smokes: same-seed double-run byte-identity of metrics
# and recorder databases, and the chaos-schedule sweep at cluster scale
# (including the 1024-node run). All are testing.Short()-guarded so tier-1
# `go test -short ./...` skips them; this target (wired into check) runs
# them in full.
scale-smoke:
	$(GO) test -run 'TestScaleDeterminism256|TestChaosSmoke256|TestChaosSmoke1024' -count=1 -v .

# Every example runs to its verdict and exits 1 on an unexpected result, so
# a change that breaks what one demonstrates fails here.
EXAMPLES = bank keysearch quickstart timetravel tokenring

examples:
	for e in $(EXAMPLES); do $(GO) run ./examples/$$e > /dev/null || { echo "examples/$$e failed"; exit 1; }; done

# No codec state outside a value reaches a stored byte (DESIGN.md "One
# binary codec"), so the golden rows and TestExperimentNumbers, which store
# the pipeline worker's checkpoint, read the same whichever test ran first.
# Three -shuffle seeds run them in different orders with the chunked-
# checkpoint tests, which encode their own worker state.
SHUFFLE_RUN = TestChunkedCheckpointTransfer|TestRecorderRestartMidChunkedTransfer|TestGoldenFingerprints$$|TestExperimentNumbers$$

shuffle:
	for s in 1 3 5; do $(GO) test -count=1 -shuffle=$$s -run '$(SHUFFLE_RUN)' . || exit 1; done
