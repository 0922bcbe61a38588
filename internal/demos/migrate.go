package demos

import (
	"fmt"

	"publishing/internal/frame"
	"publishing/internal/trace"
)

// This file implements live process migration integrated with publishing —
// §7.1's future-work item ("An investigation should be made into
// integrating publishing with process migration"), built on Powell &
// Miller's mechanism, which the thesis already leans on for recovery on
// other processors (§3.3.3).
//
// Migration is a checkpoint that lands on a different node: the source
// kernel snapshots the quiescent process (state, link table, counters, and
// its unread queue), ships the image, notifies the recorder that the
// process moved, and leaves a forwarding route behind. Because the image is
// also delivered to the recorder as an ordinary checkpoint, the migrant
// stays recoverable at its new home with no gap in its published history.

// ProcImage is a transportable snapshot of one process.
type ProcImage struct {
	Proc frame.ProcID
	Spec ProcSpec
	// Checkpoint is the machine+links image (same format as recovery).
	Checkpoint []byte
	SendSeq    uint64
	ReadCount  uint64
	// Queue is the unread input queue, in order, with any passed links.
	Queue []QueuedMsg
}

// QueuedMsg is one unread message inside a ProcImage.
type QueuedMsg struct {
	Msg  Msg
	Link *frame.Link
}

// ExportProcess checkpoints a quiescent machine process for migration and
// removes it from this kernel, leaving a forwarding route to dst. The
// recorder is sent the checkpoint (so the migrant's replay basis is exactly
// its exported queue) and a migration notice.
func (k *Kernel) ExportProcess(id frame.ProcID, dst frame.NodeID) (*ProcImage, error) {
	p := k.procs[id]
	if p == nil {
		return nil, fmt.Errorf("demos: migrate: no process %s", id)
	}
	if p.machine == nil {
		return nil, fmt.Errorf("demos: migrate: %s is not a machine image", id)
	}
	if p.recovering || p.state == psCrashed {
		return nil, fmt.Errorf("demos: migrate: %s is not in a migratable state", id)
	}
	quiescent := p.started && !p.finished &&
		(p.state == psBlocked || (p.state == psReady && p.pendingReceiveRetry))
	if !quiescent {
		return nil, fmt.Errorf("demos: migrate: %s is mid-execution; retry when parked", id)
	}

	// The migration checkpoint: identical to a recovery checkpoint, and
	// published as one, so the recorder's replay basis matches the image.
	if ok, err := k.CheckpointNow(id); err != nil || !ok {
		return nil, fmt.Errorf("demos: migrate: checkpoint failed (ok=%v err=%v)", ok, err)
	}
	mb, err := p.machine.Snapshot()
	if err != nil {
		return nil, err
	}
	img := &ProcImage{
		Proc:       id,
		Spec:       p.spec,
		Checkpoint: mustGob(&checkpointImage{Machine: mb, Links: p.links.snapshot()}),
		SendSeq:    p.sendSeq,
		ReadCount:  p.readCount,
	}
	for i := 0; i < p.queue.len(); i++ {
		item := p.queue.at(i)
		img.Queue = append(img.Queue, QueuedMsg{Msg: item.msg, Link: item.link})
	}

	// Tell the recorder where the process is going, then dismantle the
	// local incarnation WITHOUT a destruction notice — it lives on.
	if k.publishingFor(p) {
		k.notify(&Notice{Kind: NoticeMigrated, Proc: id, Node: dst})
	}
	k.terminate(p, psDead)
	k.SetRoute(id, dst)
	k.env.Log.Add(trace.KindControl, int(k.node), id.String(), "migrated away to n%d", dst)
	return img, nil
}

// ImportProcess installs a migrated image on this kernel: the process
// resumes exactly where it parked, unread queue included.
func (k *Kernel) ImportProcess(img *ProcImage) error {
	if k.crashed {
		return fmt.Errorf("demos: migrate: node %d is down", k.node)
	}
	id := img.Proc
	_, err := k.Spawn(img.Spec, SpawnOptions{
		FixedID:    &id,
		Checkpoint: img.Checkpoint,
		SendSeq:    img.SendSeq,
		ReadCount:  img.ReadCount,
		Quiet:      true, // the recorder already tracks the process
	})
	if err != nil {
		return err
	}
	p := k.procs[id]
	for _, q := range img.Queue {
		k.pushToQueue(p, q.Msg, q.Link)
	}
	k.SetRoute(id, k.node)
	k.env.Log.Add(trace.KindControl, int(k.node), id.String(), "migrated in (%d queued messages)", len(img.Queue))
	return nil
}
