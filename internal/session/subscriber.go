package session

import (
	"context"
	"sync"
)

// Subscriber is one consumer of a session's snapshot stream. Each
// subscriber owns a bounded queue: the publisher never blocks on a
// subscriber — when the queue is full the oldest pending snapshot is
// dropped (and counted in Metrics.SnapshotsDropped), so a consumer that
// stops reading degrades to "latest snapshots only" instead of stalling
// the analysis path.
type Subscriber struct {
	sess *Session

	mu     sync.Mutex
	queue  []*Snapshot
	max    int
	reason string

	notify chan struct{}
	ended  chan struct{}
}

// Subscribe attaches a new subscriber. Snapshots still buffered in the
// session ring with an id greater than lastID are queued immediately,
// so a consumer resuming with its last seen SSE event id receives every
// retained snapshot exactly once, in order, with no duplicates. Pass 0
// to start from the oldest retained snapshot. Subscribing to an ended
// session returns a subscriber whose Next drains the backlog and then
// reports the end reason. Every snapshot a subscriber receives carries
// Data without a Report.
func (s *Session) Subscribe(lastID uint64) *Subscriber {
	sub := &Subscriber{
		sess:   s,
		max:    s.m.cfg.Ring,
		notify: make(chan struct{}, 1),
		ended:  make(chan struct{}),
	}
	s.mu.Lock()
	for _, sn := range s.ring {
		if sn.ID > lastID {
			if sn.Report != nil {
				sn = sn.dataOnly()
			}
			sub.queue = append(sub.queue, sn)
		}
	}
	if s.ended {
		sub.reason = s.endReason
		close(sub.ended)
	} else {
		s.subs[sub] = struct{}{}
	}
	s.mu.Unlock()
	return sub
}

// Unsubscribe detaches sub; pending snapshots are discarded.
func (s *Session) Unsubscribe(sub *Subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// push enqueues a snapshot, dropping the oldest pending one when the
// consumer has fallen a full queue behind. Never blocks.
func (sub *Subscriber) push(sn *Snapshot) {
	sub.mu.Lock()
	if len(sub.queue) >= sub.max {
		copy(sub.queue, sub.queue[1:])
		sub.queue[len(sub.queue)-1] = sn
		incC(sub.sess.m.cfg.Metrics.SnapshotsDropped)
	} else {
		sub.queue = append(sub.queue, sn)
	}
	sub.mu.Unlock()
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// end releases a blocked Next with the session's end reason.
func (sub *Subscriber) end(reason string) {
	sub.mu.Lock()
	sub.reason = reason
	sub.mu.Unlock()
	close(sub.ended)
}

// Next returns the next pending snapshot, blocking until one arrives,
// the session ends (an *EndedError matching ErrEnded, after the
// backlog drains) or ctx expires.
func (sub *Subscriber) Next(ctx context.Context) (*Snapshot, error) {
	for {
		sub.mu.Lock()
		if len(sub.queue) > 0 {
			sn := sub.queue[0]
			sub.queue[0] = nil
			sub.queue = sub.queue[1:]
			sub.mu.Unlock()
			return sn, nil
		}
		sub.mu.Unlock()
		select {
		case <-sub.notify:
		case <-sub.ended:
			sub.mu.Lock()
			if len(sub.queue) > 0 {
				sn := sub.queue[0]
				sub.queue[0] = nil
				sub.queue = sub.queue[1:]
				sub.mu.Unlock()
				return sn, nil
			}
			reason := sub.reason
			sub.mu.Unlock()
			return nil, &EndedError{Reason: reason}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
