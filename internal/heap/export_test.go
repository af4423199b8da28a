package heap

// Mem returns h's backing array: the words Release re-zeroes and hands on.
func Mem(h *Heap) []uint64 { return h.mem }

// Words returns the length of the array New builds for c.
func Words(c Config) int { return c.words() }

// ReleasedArrays returns how many released arrays of n words wait for New.
func ReleasedArrays(n int) int {
	released.Lock()
	defer released.Unlock()
	return len(released.byLen[n])
}

// DropReleased empties the free list of arrays of n words, so the next
// New of that length makes a fresh one.
func DropReleased(n int) {
	released.Lock()
	defer released.Unlock()
	delete(released.byLen, n)
}
