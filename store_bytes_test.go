package publishing

import (
	"testing"

	"publishing/internal/demos"
	"publishing/internal/simtime"
	"publishing/internal/stablestore"
)

// TestStoreBytesPerMessage pins what a published message costs the
// recorder's stable store: a stream of 2,000 guaranteed 64-byte messages
// through a 2-node cluster, counted in the 4 KB pages §5.1's buffered disk
// writes fill. CPU costs are zero and the LAN fast, so pages fill before the
// recorder's once-a-second flush seals them, and what decides the count is
// the record layout. Page counts are the same on every host, so the pin is
// exact enough to gate on. Each message leaves two records, its message
// record and its sender's last-sent watermark. Neither stores what its key
// names (the stream) or what its header's seq says (the arrival), both
// pack their integers as shortest varints, and each names its key by a
// one-byte key id instead of spelling out the name and its length
// (msg:p1.1, 8 B; last:p0.1, 9 B): 84 B of records a message, 42 pages
// with the space left at page ends, 86.0 store bytes a message. Spelling
// the names out took 101 B, 50 pages, 102.4 store bytes; the fixed
// big-endian layout (a 23-B store
// header, a 59-B message record, a 32-B watermark record) took 90 pages,
// 184 B a message. The ceiling admits the 42 pages this layout takes and
// not one more (43 pages are 88.1 B a message).
func TestStoreBytesPerMessage(t *testing.T) {
	const msgs, body, ceiling = 2000, 64, 88.0
	cfg := DefaultConfig(2)
	cfg.Costs = demos.ZeroCosts()
	FastLAN(&cfg)
	c := New(cfg)
	t.Cleanup(c.Close)
	c.Trace().Enable(false)
	run := Stream{Msgs: msgs, Bytes: body}.Start(c)
	rec := c.Recorder().Stats()
	if !c.RunUntil(func() bool { return run.Got >= msgs && rec.ArrivalsRecorded >= msgs }, simtime.Minute) {
		t.Fatalf("%d of %d messages delivered, %d recorded", run.Got, msgs, rec.ArrivalsRecorded)
	}
	pages := c.Store().Pages()
	got := float64(pages*stablestore.PageSize) / msgs
	t.Logf("%d pages for %d messages: %.1f store bytes per message (ceiling %.0f)", pages, msgs, got, ceiling)
	if got > ceiling {
		t.Errorf("%.1f store bytes per published message, over the ceiling of %.0f", got, ceiling)
	}
}
