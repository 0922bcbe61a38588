// Pubsim regenerates the queuing-model half of the paper's evaluation
// (Chapter 5, part one): the Fig 5.1 topology, the Fig 5.2 hardware
// parameters, the Fig 5.3 state-size distribution, the Fig 5.4 operating
// points, the Fig 5.5 utilization surface, the §5.1 prose claims (disk
// saturation and its buffering fix, the >3-node saturation at the maximum
// system-call rate, recorder buffering and storage bounds), the §5.1
// checkpoint-interval observations, the abstract's 115-user capacity, and
// the §6.6 optimization estimates. The reports live in internal/figures.
//
// Usage:
//
//	go run ./cmd/pubsim              # everything
//	go run ./cmd/pubsim -fig55       # one artifact
package main

import (
	"flag"
	"os"

	"publishing/internal/figures"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	run := figures.Flags(figures.Model)
	flag.Parse()
	run(os.Stdout, *seed)
}
