package sim

// taskQueue is a task's input queue. It holds the delivered batch
// arrays themselves, oldest first, and reads items where they lie; an
// array goes back to the batch pool when its last item has been taken.
// A queue that drains restarts at the front of its storage, so a task
// that is idle most of the time keeps touching the same few cache lines
// for the whole run.
type taskQueue struct {
	batches [][]Item
	head    int // index of the oldest batch
	pos     int // next unread item of batches[head]
	n       int // items queued
}

// push enqueues a non-empty batch. Storage grows only while less than
// half of it is a consumed prefix; otherwise the live part slides down.
func (q *taskQueue) push(b []Item) {
	if q.head > 0 && q.head*2 >= len(q.batches) && len(q.batches) == cap(q.batches) {
		live := copy(q.batches, q.batches[q.head:])
		clear(q.batches[live:])
		q.batches, q.head = q.batches[:live], 0
	}
	q.batches = append(q.batches, b)
	q.n += len(b)
}

// peek returns the oldest queued item in place (the queue must not be
// empty). The pointer is valid until advance.
func (q *taskQueue) peek() *Item { return &q.batches[q.head][q.pos] }

// advance steps past the oldest item. When that was the last item of its
// batch the array is returned: no queued item lies in it any more.
func (q *taskQueue) advance() (done []Item) {
	q.n--
	q.pos++
	if q.pos < len(q.batches[q.head]) {
		return nil
	}
	done = q.batches[q.head]
	q.batches[q.head] = nil
	q.head, q.pos = q.head+1, 0
	if q.head == len(q.batches) {
		q.batches, q.head = q.batches[:0], 0
	}
	return done
}

// dataItems counts the queued non-barrier items.
func (q *taskQueue) dataItems() int64 {
	n, pos := int64(0), q.pos
	for _, b := range q.batches[q.head:] {
		n += dataItems(b[pos:])
		pos = 0
	}
	return n
}

// drain empties the queue and returns the arrays it still held.
func (q *taskQueue) drain() [][]Item {
	held := q.batches[q.head:]
	*q = taskQueue{}
	return held
}
