package main

import (
	"slices"

	"secstack/internal/pad"
	"secstack/internal/xrand"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match the ones a Python script
// computes from the same values. One value is its own quartiles; none gives 0s.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// reservoir keeps a uniform random sample of at most cap(xs) of the
// latencies (in ns) offered to it (Vitter's Algorithm R), so a window of
// millions of operations yields exact-valued percentiles in bounded
// memory. One reservoir belongs to one goroutine, and is padded so that
// it shares no cache line with another goroutine's (see opStream).
type reservoir struct {
	_    [pad.CacheLine]byte
	seen int64
	xs   []int64
	rng  xrand.State
	_    [pad.CacheLine]byte
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{xs: make([]int64, 0, size), rng: *xrand.New(seed)}
}

func (r *reservoir) add(ns int64) {
	r.seen++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, ns)
		return
	}
	if j := r.rng.Uint64() % uint64(r.seen); j < uint64(len(r.xs)) {
		r.xs[j] = ns
	}
}

// samples sums the observations offered to rs.
func samples(rs []*reservoir) int64 {
	var n int64
	for _, r := range rs {
		n += r.seen
	}
	return n
}

// percentiles returns, for each p in ps (fractions in [0,1]), the
// smallest sampled value whose cumulative weight reaches p of the total,
// where each reservoir's samples are weighted by how many observations
// they stand for - so workers that ran more operations count for more.
// It returns zeros when nothing was sampled.
func percentiles(rs []*reservoir, ps ...float64) []float64 {
	type wv struct {
		v int64
		w float64
	}
	var all []wv
	var total float64
	for _, r := range rs {
		if len(r.xs) == 0 {
			continue
		}
		w := float64(r.seen) / float64(len(r.xs))
		for _, v := range r.xs {
			all = append(all, wv{v, w})
		}
		total += float64(r.seen)
	}
	out := make([]float64, len(ps))
	if len(all) == 0 {
		return out
	}
	slices.SortFunc(all, func(a, b wv) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	for i, p := range ps {
		target, cum := p*total, 0.0
		out[i] = float64(all[len(all)-1].v)
		for _, x := range all {
			if cum += x.w; cum >= target {
				out[i] = float64(x.v)
				break
			}
		}
	}
	return out
}

// percentileOf is percentiles over a plain list of ns values.
func percentileOf(xs []int64, p float64) float64 {
	return percentiles([]*reservoir{{seen: int64(len(xs)), xs: xs}}, p)[0]
}
