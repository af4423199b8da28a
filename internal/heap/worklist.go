package heap

import (
	"sync"

	"mst/internal/object"
)

// The parallel scavenger's grey-object work lists. Each worker owns one
// deque; it pushes and pops at the tail (LIFO, for locality with the
// Cheney copy it just made) while thieves take from the head (FIFO, so
// a steal grabs the oldest — typically largest-subgraph — item). A
// host mutex per deque keeps the implementation simple and obviously
// correct; the deques are short-lived (one stop-the-world window) and
// uncontended except when a worker runs dry, so the lock is not a
// scalability concern at the simulated processor counts (≤ 8). In
// deterministic mode the same structure is driven by a single
// goroutine and the mutex is never contended.
//
// This file deliberately contains no h.mem writes: work items carry
// OOPs and root-slot pointers, never raw heap words, so there is no raw
// store here for msvet's barrierflow analyzer to flag.

// greyItem is one unit of scavenge work. Exactly one of the two views
// is active: a root-slot item (slot != nil) forwards *slot and updates
// it in place; a grey-object item (slot == nil) scans obj's class word
// and pointer fields.
type greyItem struct {
	obj  object.OOP
	slot *object.OOP
}

// worklist is one worker's grey deque.
type worklist struct {
	//msvet:stw-safe grey-deque lock: the deques exist only while the world is stopped, shared solely among scavenge workers; no mutator can be parked holding it
	mu   sync.Mutex
	head int // index of the oldest unconsumed item
	buf  []greyItem
}

// push appends an item at the tail. Only the owning worker pushes.
func (w *worklist) push(it greyItem) {
	w.mu.Lock()
	w.buf = append(w.buf, it)
	w.mu.Unlock()
}

// pop removes the newest item (tail). Owner only.
func (w *worklist) pop() (greyItem, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head >= len(w.buf) {
		return greyItem{}, false
	}
	it := w.buf[len(w.buf)-1]
	w.buf = w.buf[:len(w.buf)-1]
	if w.head >= len(w.buf) {
		w.head = 0
		w.buf = w.buf[:0]
	}
	return it, true
}

// steal removes the oldest item (head); any worker may call it.
func (w *worklist) steal() (greyItem, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head >= len(w.buf) {
		return greyItem{}, false
	}
	it := w.buf[w.head]
	w.buf[w.head] = greyItem{}
	w.head++
	if w.head >= len(w.buf) {
		w.head = 0
		w.buf = w.buf[:0]
	} else if w.head > 64 && w.head > len(w.buf)/2 {
		// Compact so a long steal run does not pin the whole backing
		// array behind a sliding head.
		n := copy(w.buf, w.buf[w.head:])
		w.buf = w.buf[:n]
		w.head = 0
	}
	return it, true
}

// size returns the current item count.
func (w *worklist) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf) - w.head
}
