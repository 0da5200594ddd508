package topo

// SearchRoute is the uncached route search behind Route, for benchmarks
// that measure the BFS itself.
func (t *Topology) SearchRoute(src, dst, network int) (Path, error) {
	r := t.search(src, dst, network)
	return r.path, r.err
}

// ForgetRoute empties one slot of a sealed topology's route table, so the
// next Route of (src, dst, network) is a cold fill again.
func (t *Topology) ForgetRoute(src, dst, network int) {
	t.routes[(src*t.nodes+dst)*networks+network].Store(nil)
}
