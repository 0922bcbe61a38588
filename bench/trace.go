package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"publishing/internal/simtime"
	"publishing/internal/trace"
)

// The traced pass keeps one span tree per message and one per crash, built
// from events the product already emits (plus the benchmark's own Handle
// stamp), all in memory until the pass ends.

// msgSpans are the virtual instants of one message id; zero = not seen.
type msgSpans struct {
	id                                    string
	send, deliver, stable, acked, handled simtime.Time
}

// recoverySpans are the instants of one crash→caught-up cycle.
type recoverySpans struct {
	proc                                      string
	crash, detect, restart, firstReplay, done simtime.Time
	replayed                                  int
}

type spanRecorder struct {
	nodes  int // processing nodes: events from higher node ids are a recorder's
	msgs   map[string]*msgSpans
	order  []*msgSpans // first-seen order, so the span file is deterministic
	open   map[string]*recoverySpans
	cycles []*recoverySpans
	events int
}

func newSpanRecorder(nodes int) *spanRecorder {
	return &spanRecorder{nodes: nodes, msgs: map[string]*msgSpans{}, open: map[string]*recoverySpans{}}
}

func (s *spanRecorder) msg(id string) *msgSpans {
	m := s.msgs[id]
	if m == nil {
		m = &msgSpans{id: id}
		s.msgs[id] = m
		s.order = append(s.order, m)
	}
	return m
}

func first(at *simtime.Time, t simtime.Time) {
	if *at == 0 {
		*at = t
	}
}

func (s *spanRecorder) observe(e trace.Event) {
	s.events++
	switch e.Kind {
	case trace.KindSend:
		if e.Msg != "" {
			first(&s.msg(e.Msg).send, e.At) // later ones are retransmissions
		}
	case trace.KindDeliver:
		if e.Msg != "" {
			first(&s.msg(e.Msg).deliver, e.At)
		}
	case trace.KindPublish:
		if e.Msg != "" {
			first(&s.msg(e.Msg).stable, e.At)
		}
	case trace.KindAck:
		if e.Msg != "" {
			first(&s.msg(e.Msg).acked, e.At)
		}
	case trace.KindCrash:
		if e.Node < s.nodes && e.Subject != "node" {
			r := &recoverySpans{proc: e.Subject, crash: e.At}
			s.open[e.Subject] = r
			s.cycles = append(s.cycles, r)
		}
	case trace.KindDetect:
		if r := s.open[e.Subject]; r != nil {
			first(&r.detect, e.At)
		}
	case trace.KindRecoveryStart:
		// The recorder logs its own recovery-start at the detect instant; the
		// kernel's, after the replay grace and the recreate round trip, is
		// when the process exists again.
		if r := s.open[e.Subject]; r != nil && e.Node < s.nodes {
			first(&r.restart, e.At)
		}
	case trace.KindReplay:
		if r := s.open[e.Subject]; r != nil && e.Msg != "" && e.Node < s.nodes {
			first(&r.firstReplay, e.At)
			r.replayed++
		}
	case trace.KindRecoveryDone:
		if r := s.open[e.Subject]; r != nil && e.Node >= s.nodes {
			r.done = e.At
			delete(s.open, e.Subject)
		}
	}
}

func (s *spanRecorder) handled(id string, at simtime.Time) { first(&s.msg(id).handled, at) }

// tracedMetrics fills res.Layer with what only the traced pass can give:
// stage and recovery-phase medians from the span trees, the monitor's
// counts, and the per-layer drives; then writes the span file.
func tracedMetrics(p *pass, res *passResult, o passOpts, t0 time.Time) {
	s, L := p.h.spans, res.Layer
	var sendDeliver, deliverHandle, deliverStable, sendAcked, sendStable []int64
	between := func(dst *[]int64, from, to simtime.Time) {
		if from != 0 && to != 0 {
			*dst = append(*dst, int64(to-from))
		}
	}
	for _, m := range s.order {
		if m.handled == 0 {
			continue // kernel notices, control and replay traffic
		}
		between(&sendDeliver, m.send, m.deliver)
		between(&deliverHandle, m.deliver, m.handled)
		between(&deliverStable, m.deliver, m.stable)
		between(&sendAcked, m.send, m.acked)
		between(&sendStable, m.send, m.stable)
	}
	p50 := func(v []int64) float64 { return float64(percentile(sortedCopy(v), 0.5)) / 1e6 }
	L["stage.send_deliver_p50_vms"] = p50(sendDeliver)
	L["stage.deliver_handle_p50_vms"] = p50(deliverHandle)
	L["stage.deliver_stable_p50_vms"] = p50(deliverStable)
	L["stage.send_acked_p50_vms"] = p50(sendAcked)
	L["recorder.stable_p50_vms"] = p50(sendStable)

	var detect, restart, firstReplay, replay []int64
	for _, r := range s.cycles {
		if r.done == 0 {
			continue
		}
		between(&detect, r.crash, r.detect)
		between(&restart, r.detect, r.restart)
		between(&firstReplay, r.restart, r.firstReplay)
		between(&replay, r.firstReplay, r.done)
	}
	L["recovery.detect_vms"] = p50(detect)
	L["recovery.restart_vms"] = p50(restart)
	L["recovery.first_replay_vms"] = p50(firstReplay)
	L["recovery.replay_vms"] = p50(replay)

	L["monitor.events_per_msg"] = float64(s.events) / float64(max(p.h.delivered, 1))
	L["monitor.violations"] = float64(len(p.h.mon.Violations()))

	runDrives(p, res, o.tiny, t0)

	if o.outDir != "" {
		if err := writeSpanFile(filepath.Join(o.outDir, res.Workload+".trace.json"), s, res.Spans); err != nil {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("span file: %v", err))
		}
	}
}

// spanFileMsgs bounds how many message trees the span file holds; every
// stage median above is over all of them regardless.
const spanFileMsgs = 2000

// writeSpanFile writes the trees in Chrome trace-event format (load it in
// Perfetto or about:tracing). Virtual-time trees are in virtual µs, one
// message or one recovery per row pair; host spans in host µs.
func writeSpanFile(path string, s *spanRecorder, host []hostSpan) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"messages (virtual time)"}},`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":2,"args":{"name":"recoveries (virtual time)"}},`+"\n")
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":3,"args":{"name":"benchmark (host time)"}}`)
	us := func(t simtime.Time) float64 { return float64(t) / 1e3 }
	// Spans of one tree share args.id; args.parent names the span that
	// contains them ("" for a root).
	x := func(pid, tid int, name, parent, id string, from, to float64) {
		if from > 0 && to >= from {
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%q,"parent":%q}}`,
				name, pid, tid, from, to-from, id, parent)
		}
	}
	var handled []*msgSpans
	for _, m := range s.order {
		if m.handled != 0 {
			handled = append(handled, m)
		}
	}
	stride := max(1, len(handled)/spanFileMsgs)
	for i := 0; i < len(handled); i += stride {
		// Two rows per message so that spans on a row nest: msg ⊃
		// send→deliver, deliver→handle on one; send→acked ⊃ deliver→stable
		// on the other.
		m, row := handled[i], 2*(i/stride)
		x(1, row, "msg", "", m.id, us(m.send), us(max(m.handled, m.acked, m.stable)))
		x(1, row, "send→deliver", "msg", m.id, us(m.send), us(m.deliver))
		x(1, row, "deliver→handle", "msg", m.id, us(m.deliver), us(m.handled))
		x(1, row+1, "send→acked", "msg", m.id, us(m.send), us(m.acked))
		x(1, row+1, "deliver→stable", "send→acked", m.id, us(m.deliver), us(m.stable))
	}
	for i, r := range s.cycles {
		id := fmt.Sprintf("%s cycle %d (%d replayed)", r.proc, i+1, r.replayed)
		x(2, i, "recovery", "", id, us(r.crash), us(r.done))
		x(2, i, "crash→detect", "recovery", id, us(r.crash), us(r.detect))
		x(2, i, "detect→recovery-start", "recovery", id, us(r.detect), us(r.restart))
		x(2, i, "recovery-start→first-replay", "recovery", id, us(r.restart), us(r.firstReplay))
		x(2, i, "first-replay→recovery-done", "recovery", id, us(r.firstReplay), us(r.done))
	}
	for _, h := range host {
		// +1 µs: the first span starts at 0, which x treats as "not seen".
		x(3, 0, h.Name, "", h.Name, h.Start*1e6+1, h.End*1e6+1)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
