package sim

import "math/rand"

// lazySource is math/rand's seeded generator with the seeding deferred
// to the first draw. Seeding the ALFG walks its whole 607-word state
// (~10 µs), the engine re-seeds on every run, and a run without
// fluctuation or spot revocations never draws: that reseed was an
// eighth of a warm learning job. Once drawn from, the stream is the
// one rand.NewSource(seed) yields.
type lazySource struct {
	src    rand.Source64 // nil until the first draw
	seed   int64
	seeded bool
}

func (l *lazySource) Seed(seed int64) { l.seed, l.seeded = seed, false }

func (l *lazySource) Int63() int64 { return l.ready().Int63() }

func (l *lazySource) Uint64() uint64 { return l.ready().Uint64() }

func (l *lazySource) ready() rand.Source64 {
	if !l.seeded {
		if l.src == nil {
			l.src = rand.NewSource(l.seed).(rand.Source64)
		} else {
			l.src.Seed(l.seed)
		}
		l.seeded = true
	}
	return l.src
}
