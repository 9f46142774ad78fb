package rl

// floatArena hands out copies of small float slices carved from large
// blocks, replacing the per-transition `append([]float64(nil), obs...)`
// garbage in rollout collection with one allocation per ~8k floats. Slices
// returned by clone stay valid forever (blocks are never reused), so
// transitions can hold them across the arena's lifetime; the arena itself is
// scoped to one Collect call and becomes garbage with its batch.
type floatArena struct {
	block []float64
	off   int
}

const arenaBlockFloats = 8192

// reset rewinds the arena so the current block is reused. Only valid when no
// slice handed out by clone is still live — i.e. when the batch that held
// them has been fully consumed.
func (a *floatArena) reset() { a.off = 0 }

// clone returns a copy of xs backed by the arena.
func (a *floatArena) clone(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if a.off+n > len(a.block) {
		a.block = make([]float64, max(n, arenaBlockFloats))
		a.off = 0
	}
	dst := a.block[a.off : a.off+n : a.off+n]
	a.off += n
	copy(dst, xs)
	return dst
}

// grow returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// updateShardSize is the fixed number of transitions per gradient shard in
// the parallel minibatch update. It is a constant — never a function of the
// worker count — so the shard partition, each shard's accumulation order,
// and the index-ordered shard reduction are identical for any number of
// workers: same seed, same floats, whether the update runs on 1 goroutine
// or 16.
const updateShardSize = 64

// numShards returns the fixed shard count for an n-transition batch.
func numShards(n int) int {
	return (n + updateShardSize - 1) / updateShardSize
}

// shardBounds returns shard si's half-open transition range.
func shardBounds(si, n int) (start, end int) {
	start = si * updateShardSize
	end = start + updateShardSize
	if end > n {
		end = n
	}
	return start, end
}
