// Package measure ports the paper's DEMOS/MP measurements (§5.2) onto the
// cluster simulation. These are *measurements*, not table lookups: the
// Fig 5.6 program really runs on a simulated node, reads the virtual
// real-time clock and the kernel's accumulated CPU time, and the reported
// numbers emerge from the kernel cost model plus the medium — the same way
// the originals emerged from a VAX 11/750.
//
//   - Fig 5.7: per-message overheads of a 512-iteration self-send loop on a
//     quiescent system, with and without publishing.
//   - Fig 5.8: CPU cost of creating and destroying a null process 25 times
//     through the full process-control chain, with and without publishing.
//   - §5.2.2: the recorder's per-message publishing cost at the three
//     implementation points (57 ms naive, 12 ms inlined, 0.8 ms media
//     layer), measured as recorder CPU per published message.
package measure

import (
	"fmt"

	"publishing"
	"publishing/internal/recorder"
	"publishing/internal/simtime"
)

// PerMessage is one row of Figure 5.7.
type PerMessage struct {
	Publishing bool
	RealMS     float64
	CPUMS      float64
}

// String formats the row.
func (p PerMessage) String() string {
	tag := "without"
	if p.Publishing {
		tag = "with"
	}
	return fmt.Sprintf("%-7s realTime=%.1fms cpuTime=%.1fms", tag, p.RealMS, p.CPUMS)
}

// measureCluster builds a quiescent single-node cluster.
func measureCluster(pub bool, medium publishing.MediumKind) *publishing.Cluster {
	cfg := publishing.DefaultConfig(1)
	cfg.Medium = medium
	cfg.Publishing = pub
	// Keep the system quiescent: no watchdog chatter during measurement.
	cfg.WatchInterval = 10 * simtime.Minute
	return publishing.New(cfg)
}

// Fig57 runs the Fig 5.6 measurement program — 512 self-sends — and
// returns the per-message real and CPU times.
func Fig57(pub bool) PerMessage {
	c := measureCluster(pub, publishing.MediumPerfect)
	const iters = 512
	var realPer, cpuPer simtime.Time
	done := false
	c.Registry().RegisterProgram("fig56", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			l := ctx.CreateLink(0, 0)
			body := make([]byte, 128)
			// --- Get the value of the real time clock (Fig 5.6) ---
			startReal := ctx.RealTime()
			// --- Get the CPU time spent outside the idle loop ---
			startCPU := ctx.RunTime()
			// --- Send the message 512 times ---
			for i := 0; i < iters; i++ {
				if err := ctx.Send(l, body, publishing.NoLink); err != nil {
					panic(err)
				}
				ctx.Receive()
			}
			// --- Calculate time for each Send/Receive ---
			realPer = (ctx.RealTime() - startReal) / iters
			cpuPer = (ctx.RunTime() - startCPU) / iters
			done = true
		}
	})
	if _, err := c.Spawn(0, publishing.ProcSpec{Name: "fig56", Recoverable: true}); err != nil {
		panic(err)
	}
	c.Run(5 * simtime.Minute)
	if !done {
		panic("measure: Fig 5.6 program did not finish")
	}
	return PerMessage{Publishing: pub, RealMS: realPer.Milliseconds(), CPUMS: cpuPer.Milliseconds()}
}

// Fig57Table returns both rows of Figure 5.7.
func Fig57Table() [2]PerMessage {
	return [2]PerMessage{Fig57(false), Fig57(true)}
}

// PerProcess is one row of Figure 5.8: total CPU for 25 create/destroy
// cycles of a null process.
type PerProcess struct {
	Publishing bool
	TotalCPUMS float64
}

// String formats the row.
func (p PerProcess) String() string {
	tag := "without"
	if p.Publishing {
		tag = "with"
	}
	return fmt.Sprintf("%-7s cpuTime=%.0fms", tag, p.TotalCPUMS)
}

// Fig58 creates and destroys a null process 25 times through the process
// manager → memory scheduler → kernel process chain and reports the
// system's total kernel CPU increase.
func Fig58(pub bool) PerProcess {
	cfg := publishing.DefaultConfig(1)
	cfg.Publishing = pub
	cfg.WatchInterval = 10 * simtime.Minute
	cfg.SystemProcs = true
	c := publishing.New(cfg)

	c.Registry().RegisterProgram("null", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) { ctx.Receive() }
	})
	const cycles = 25
	var startCPU, endCPU simtime.Time
	done := false
	c.Registry().RegisterProgram("driver", func(args []byte) publishing.Program {
		return func(ctx *publishing.PCtx) {
			pm, err := ctx.ServiceLink("procmgr")
			if err != nil {
				panic(err)
			}
			startCPU = ctx.RunTime()
			for i := 0; i < cycles; i++ {
				_, ctl, err := ctx.CreateProcess(pm, publishing.ProcSpec{Name: "null", Recoverable: true}, 0)
				if err != nil {
					panic(err)
				}
				if err := ctx.DestroyProcess(ctl); err != nil {
					panic(err)
				}
			}
			endCPU = ctx.RunTime()
			done = true
		}
	})
	// Let the system processes finish booting before measuring.
	c.Run(10 * simtime.Second)
	if _, err := c.Spawn(0, publishing.ProcSpec{Name: "driver", Recoverable: true}); err != nil {
		panic(err)
	}
	c.Run(30 * simtime.Minute)
	if !done {
		panic("measure: Fig 5.8 driver did not finish")
	}
	return PerProcess{Publishing: pub, TotalCPUMS: (endCPU - startCPU).Milliseconds()}
}

// Fig58Table returns both rows of Figure 5.8.
func Fig58Table() [2]PerProcess {
	return [2]PerProcess{Fig58(false), Fig58(true)}
}

// PublishCost is one §5.2.2 measurement: recorder CPU per published
// message under one implementation mode.
type PublishCost struct {
	Mode  recorder.ProcessMode
	PerMS float64
}

// String formats the measurement.
func (p PublishCost) String() string {
	return fmt.Sprintf("%-12s %.2fms/message", p.Mode, p.PerMS)
}

// PublishTimeLevels measures the recorder's per-message cost at all three
// §5.2.2 implementation points by running a message workload and dividing
// accumulated publish CPU by messages seen.
func PublishTimeLevels() []PublishCost {
	var out []PublishCost
	for _, mode := range []recorder.ProcessMode{recorder.ModeNaive, recorder.ModeOptimized, recorder.ModeMediaLayer} {
		cfg := publishing.DefaultConfig(2)
		cfg.RecorderMode = mode
		cfg.WatchInterval = 10 * simtime.Minute
		c := publishing.New(cfg)
		publishing.Stream{Msgs: 50, Bytes: 128}.Start(c)
		c.Run(5 * simtime.Minute)
		st := c.Recorder().Stats()
		if st.MessagesSeen == 0 {
			panic("measure: recorder saw no messages")
		}
		out = append(out, PublishCost{
			Mode:  mode,
			PerMS: (st.PublishCPU / simtime.Time(st.MessagesSeen)).Milliseconds(),
		})
	}
	return out
}
