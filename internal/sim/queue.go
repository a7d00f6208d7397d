package sim

// taskQueue is a task's input queue. It holds the delivered batches —
// array and header — oldest first, and reads items where they lie; an
// array goes back to the batch pool when its last item has been taken.
// A queue that drains restarts at the front of its storage, so a task
// that is idle most of the time keeps touching the same few cache lines
// for the whole run.
type taskQueue struct {
	batches []batch
	head    int // index of the oldest batch
	pos     int // next unread item of batches[head]
	n       int // items queued
}

// push enqueues a non-empty batch. Storage grows only while less than
// half of it is a consumed prefix; otherwise the live part slides down.
func (q *taskQueue) push(b batch) {
	if q.head > 0 && q.head*2 >= len(q.batches) && len(q.batches) == cap(q.batches) {
		live := copy(q.batches, q.batches[q.head:])
		clear(q.batches[live:])
		q.batches, q.head = q.batches[:live], 0
	}
	q.batches = append(q.batches, b)
	q.n += len(b.items)
}

// peek returns the oldest queued item in place, and the header of the
// batch it lies in (the queue must not be empty). The pointers are valid
// until advance.
func (q *taskQueue) peek() (*Item, *batchHeader) {
	b := &q.batches[q.head]
	return &b.items[q.pos], &b.batchHeader
}

// advance steps past the oldest item. When that was the last item of its
// batch the array is returned: no queued item lies in it any more.
func (q *taskQueue) advance() (done []Item) {
	q.n--
	q.pos++
	if q.pos < len(q.batches[q.head].items) {
		return nil
	}
	done = q.batches[q.head].items
	q.batches[q.head] = batch{}
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
		n += dataItems(b.items[pos:])
		pos = 0
	}
	return n
}

// drain empties the queue and returns the batches it still held.
func (q *taskQueue) drain() []batch {
	held := q.batches[q.head:]
	*q = taskQueue{}
	return held
}
