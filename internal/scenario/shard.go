package scenario

import "time"

// Shard is kept only for the benchmark harness (abwbench), which still
// names NewShard, CompileSeededAggregate and Recycle. It holds nothing:
// compiles are plain Descriptor compiles. The type goes when a
// benchmark change drops those calls.
type Shard struct{}

// NewShard returns an empty shard. Kept only for the benchmark harness.
func NewShard() *Shard { return &Shard{} }

// CompileSeededAggregate is d.CompileSeededAggregate(seed, epoch).
// Kept only for the benchmark harness.
func (*Shard) CompileSeededAggregate(d Descriptor, seed uint64, epoch time.Duration) (*Compiled, error) {
	return d.CompileSeededAggregate(seed, epoch)
}

// Recycle does nothing. Kept only for the benchmark harness.
func (*Shard) Recycle(string, *Compiled) {}
