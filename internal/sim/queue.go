package sim

// batchFIFO is a queue of batches, oldest first, that keeps reusing its
// storage: it restarts at the front of its slice when it empties, and
// grows only while less than half of the slice is a consumed prefix;
// otherwise the live part slides down. A task's input queue and a
// channel's in-flight batches are each one.
type batchFIFO struct {
	batches []batch
	head    int // index of the oldest batch
}

// push enqueues b behind every batch queued before it.
func (f *batchFIFO) push(b batch) {
	if f.head > 0 && f.head*2 >= len(f.batches) && len(f.batches) == cap(f.batches) {
		live := copy(f.batches, f.batches[f.head:])
		clear(f.batches[live:])
		f.batches, f.head = f.batches[:live], 0
	}
	f.batches = append(f.batches, b)
}

// front returns the oldest batch in place (the FIFO must not be empty).
func (f *batchFIFO) front() *batch { return &f.batches[f.head] }

// pop removes the oldest batch and returns it.
func (f *batchFIFO) pop() batch {
	b := f.batches[f.head]
	f.batches[f.head] = batch{}
	f.head++
	if f.head == len(f.batches) {
		f.batches, f.head = f.batches[:0], 0
	}
	return b
}

// taskQueue is a task's input queue. It holds the delivered batches —
// array and header — oldest first, and reads items where they lie; an
// array goes back to the batch pool when its last item has been taken.
// A queue that drains restarts at the front of its storage, so a task
// that is idle most of the time keeps touching the same few cache lines
// for the whole run.
type taskQueue struct {
	batchFIFO
	pos int // next unread item of the oldest batch
	n   int // items queued
}

// push enqueues a non-empty batch.
func (q *taskQueue) push(b batch) {
	q.batchFIFO.push(b)
	q.n += len(b.items)
}

// peek returns the oldest queued item in place, and the header of the
// batch it lies in (the queue must not be empty). The pointers are valid
// until advance.
func (q *taskQueue) peek() (*Item, *batchHeader) {
	b := q.front()
	return &b.items[q.pos], &b.batchHeader
}

// advance steps past the oldest item. When that was the last item of its
// batch the array is returned: no queued item lies in it any more.
func (q *taskQueue) advance() (done []Item) {
	q.n--
	q.pos++
	if q.pos < len(q.front().items) {
		return nil
	}
	q.pos = 0
	return q.pop().items
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
