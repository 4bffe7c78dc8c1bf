//go:build !race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on otherwise alloc-free
// paths and makes sync.Pool drop items. The allocation gates skip under
// it, and the all-sinks reference check runs on its input tree alone.
const raceEnabled = false
