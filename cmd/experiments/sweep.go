package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"publishing"
	"publishing/internal/simtime"
	"publishing/internal/sweep"
)

// sweepSink is the null destination machine of the sweep workload.
type sweepSink struct{}

func (sweepSink) Init(ctx *publishing.PCtx)                     {}
func (sweepSink) Handle(ctx *publishing.PCtx, m publishing.Msg) {}
func (sweepSink) Snapshot() ([]byte, error)                     { return nil, nil }
func (sweepSink) Restore(b []byte) error                        { return nil }

// sweepRun executes one (medium, seed) cluster simulation and serializes
// its full event trace plus end-of-run counters — the byte stream whose
// equality across serial and parallel execution proves determinism.
func sweepRun(t sweep.Task) ([]byte, error) {
	var trace bytes.Buffer
	cfg := publishing.DefaultConfig(3)
	cfg.Seed = t.Seed
	cfg.Medium = publishing.MediumKind(t.Config)
	cfg.TraceWriter = &trace
	c := publishing.New(cfg)
	c.Registry().RegisterMachine("sink", func(args []byte) publishing.Machine { return sweepSink{} })
	c.Registry().RegisterProgram("gen", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l, _ := ctx.ServiceLink("sink")
			for j := 0; j < 100; j++ {
				_ = ctx.Send(l, []byte{byte(j)}, publishing.NoLink)
				ctx.Compute(5 * simtime.Millisecond)
			}
		}
	})
	sink, err := c.Spawn(1, publishing.ProcSpec{Name: "sink", Recoverable: true})
	if err != nil {
		return nil, err
	}
	c.SetService("sink", sink)
	if _, err := c.Spawn(0, publishing.ProcSpec{Name: "gen", Recoverable: true}); err != nil {
		return nil, err
	}
	c.Run(2 * simtime.Minute)
	if n := c.Recorder().Stats().BelowWatermark; n != 0 {
		return nil, fmt.Errorf("recorder dropped %d acknowledged messages below a sender's watermark", n)
	}
	fmt.Fprintf(&trace, "fired=%d now=%v\n", c.Scheduler().Fired(), c.Now())
	fmt.Fprintf(&trace, "recorder=%+v\n", *c.Recorder().Stats())
	fmt.Fprintf(&trace, "medium=%+v\n", *c.Medium().Stats())
	fmt.Fprintf(&trace, "store=%+v\n", c.Store().Stats())
	return trace.Bytes(), nil
}

// sweepEntry is one task's row in BENCH_sweep.json.
type sweepEntry struct {
	Config     string  `json:"config"`
	Seed       uint64  `json:"seed"`
	Digest     string  `json:"digest"`
	OutputLen  int     `json:"output_len"`
	SerialSec  float64 `json:"serial_sec"`
	ParallelOK bool    `json:"parallel_identical"`
}

// sweepFile is the BENCH_sweep.json trajectory format.
type sweepFile struct {
	Workers     int          `json:"workers"`
	Tasks       int          `json:"tasks"`
	SerialSec   float64      `json:"serial_sec"`
	ParallelSec float64      `json:"parallel_sec"`
	Speedup     float64      `json:"speedup"`
	Verified    bool         `json:"verified_bit_identical"`
	Entries     []sweepEntry `json:"entries"`
}

// runSweep fans the (medium, seed) grid across the worker pool, checks the
// parallel outputs against a serial reference run, and writes the
// trajectory file. An empty out runs the determinism check only (the
// `make check` verification mode). workers <= 0 means one per available
// CPU (runtime.GOMAXPROCS(0)); note that on a single-CPU machine the
// "parallel" run degenerates to serial plus goroutine overhead, so the
// recorded speedup can dip below 1.0 without indicating a bug.
func runSweep(out string, workers int) {
	section("parallel deterministic sweep (internal/sweep)")
	var tasks []sweep.Task
	for _, medium := range []string{"perfect", "ether", "ring", "star"} {
		for seed := uint64(1); seed <= 4; seed++ {
			tasks = append(tasks, sweep.Task{Config: medium, Seed: seed})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("  %d tasks (4 media x 4 seeds), %d workers\n", len(tasks), workers)

	t0 := time.Now()
	serial := sweep.RunSerial(tasks, sweepRun)
	serialSec := time.Since(t0).Seconds()
	t1 := time.Now()
	parallel := sweep.Run(tasks, workers, sweepRun)
	parallelSec := time.Since(t1).Seconds()

	verr := sweep.Verify(serial, parallel)
	file := sweepFile{
		Workers:     workers,
		Tasks:       len(tasks),
		SerialSec:   round3(serialSec),
		ParallelSec: round3(parallelSec),
		Speedup:     round3(serialSec / parallelSec),
		Verified:    verr == nil,
	}
	for i, r := range serial {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "sweep: task %+v: %v\n", r.Task, r.Err)
			os.Exit(1)
		}
		file.Entries = append(file.Entries, sweepEntry{
			Config:     r.Task.Config,
			Seed:       r.Task.Seed,
			Digest:     r.Digest,
			OutputLen:  len(r.Output),
			SerialSec:  round3(r.Elapsed.Seconds()),
			ParallelOK: bytes.Equal(r.Output, parallel[i].Output),
		})
	}
	if verr != nil {
		fmt.Fprintf(os.Stderr, "sweep: DETERMINISM VIOLATION: %v\n", verr)
		os.Exit(1)
	}
	fmt.Printf("  serial %.2fs, parallel %.2fs (%.1fx); all %d outputs bit-identical\n",
		serialSec, parallelSec, serialSec/parallelSec, len(tasks))
	if out == "" {
		return
	}

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	fmt.Printf("  trajectory written to %s\n", out)
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
