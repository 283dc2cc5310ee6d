package flow

// SetParThresholds overrides the size gates of the parallel stages so
// tests can force every sharded code path on test-sized instances, and
// returns a function restoring the previous values. The differential
// suite in parallel_test.go lowers them to 1 for the whole test binary.
func SetParThresholds(route, fill, scan, sort, batch int) (restore func()) {
	pr, pf, psc, pso, pb := parRouteMin, parFillMin, parScanMin, parSortMin, parBatchMin
	parRouteMin, parFillMin, parScanMin, parSortMin, parBatchMin = route, fill, scan, sort, batch
	return func() {
		parRouteMin, parFillMin, parScanMin, parSortMin, parBatchMin = pr, pf, psc, pso, pb
	}
}

// WithExactRecompute returns opt with the reference full waterfill
// selected in place of the incremental engine: the oracle the
// differential tests compare the default engine against.
func WithExactRecompute(opt Options) Options {
	opt.exactRecompute = true
	return opt
}
