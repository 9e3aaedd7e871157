// Package pad centralizes the cache-line geometry every padded
// structure in the repository assumes: agg's batches, aggregators and
// batch hazard slots, core's per-session node hazard slots, and the
// metrics counters. The constant used to be duplicated as a private
// `cacheLine` in internal/metrics and as magic `[56]byte` paddings;
// drifting copies of a false-sharing constant are exactly the kind of
// bug that never shows up in tests, only in perf counters.
package pad

// CacheLine is the assumed cache line (and false-sharing granularity)
// in bytes. 64 is correct for every x86 and most arm64 parts; Apple
// silicon's 128-byte lines would only make the paddings half-strength,
// never unsafe.
const CacheLine = 64
