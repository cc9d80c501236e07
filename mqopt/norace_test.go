//go:build !race

package mqopt

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation distorts wall-clock ratios.
const raceEnabled = false
