// Package randsrc is math/rand's seeded generator with an O(1) Seed.
//
// rand.NewSource(seed) is an additive lagged Fibonacci generator over
// 607 words whose Seed fills every word from a Lehmer sequence, 10–15
// µs per call. The learner reseeds once per episode and draws ~100
// values from it, so nearly all of that fill is wasted. A Source here
// yields, seed for seed, exactly the values rand.NewSource yields, but
// computes each state word in closed form the first time a draw reads
// it: Seed stores the seed and nothing else.
package randsrc

import "math/rand"

const (
	rngLen = 607             // state words
	rngTap = 273             // lag of the second read
	feed0  = rngLen - rngTap // feed index after Seed: 334
	mod    = 1<<31 - 1       // the Lehmer generator's prime modulus
	mult   = 48271           // its multiplier
	mask63 = 1<<63 - 1
)

// powers[i] holds mult^(21+3i), mult^(22+3i) and mult^(23+3i) mod
// mod: the stdlib's seeding steps the Lehmer generator 20 times, then
// three times per word, and word i packs those three values.
var powers [rngLen][3]uint64

// cooked is math/rand's unexported rngCooked table, the constant the
// seeding XORs into each word.
var cooked [rngLen]int64

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * mult % mod
	}
	for i := range powers {
		for j := range powers[i] {
			powers[i][j] = p
			p = p * mult % mod
		}
	}
	cooked = recoverCooked()
}

// recoverCooked rebuilds rngCooked from rand.NewSource(1)'s first 607
// outputs. Draw k (from 1) adds word 607−k (the tap) into word 334−k
// mod 607 (the feed) and returns the sum, so:
//   - draws 274..334 read tap words the draws 273 earlier wrote, giving
//     words 60..0;
//   - draws 335..607 read feed words 606..334 unwritten, against tap
//     words written 273 draws earlier;
//   - draws 1..273 then give words 333..61 from the words just found.
//
// Each seeded word XOR its Lehmer part is the table entry.
func recoverCooked() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= feed0; k++ {
		vec[feed0-k] = out[k] - out[k-rngTap]
	}
	for k := feed0 + 1; k <= rngLen; k++ {
		vec[feed0+rngLen-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[feed0-k] = out[k] - vec[rngLen-k]
	}
	var c [rngLen]int64
	for i := range c {
		c[i] = vec[i] ^ lehmer(1, i)
	}
	return c
}

// mulmod returns x·y mod (2³¹−1) for x, y < 2³¹.
func mulmod(x, y uint64) uint64 {
	p := x * y
	r := p&mod + p>>31
	if r >= mod {
		r -= mod
	}
	return r
}

// lehmer is word i's Lehmer part for the normalised seed x.
func lehmer(x uint64, i int) int64 {
	p := &powers[i]
	return int64(mulmod(x, p[0]))<<40 ^ int64(mulmod(x, p[1]))<<20 ^ int64(mulmod(x, p[2]))
}

// Source is a rand.Source64 whose every output equals, seed for seed,
// rand.NewSource's. Like that source it is not safe for concurrent use.
// Its 607-word state is allocated on the first draw past the 273rd:
// until then every draw reads only words no earlier draw wrote, so it
// is computed in closed form, and a source that is seeded and drawn a
// few hundred times (an episode's exploration) costs a few words.
type Source struct {
	x         uint64 // the seed, normalised as math/rand does
	n         int    // draws since Seed, counted up to feed0
	tap, feed int
	vec       *[rngLen]int64 // kept across Seed once allocated
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x, s.n, s.tap, s.feed = uint64(seed), 0, 0, feed0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	if s.n < feed0 {
		return int64(s.warm() & mask63)
	}
	return int64(s.step() & mask63)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.n < feed0 {
		return s.warm()
	}
	return s.step()
}

// step is one draw of the generator, every word it reads computed. It
// is small enough to inline, so past warm-up Int63 and Uint64 make no
// call.
func (s *Source) step() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// warm is a draw among the first 334 after Seed. Each of those reads a
// feed word no earlier draw has read, and the first 273 a tap word
// likewise; every later read is of a word some draw already read or
// wrote. So warm computes each word just before its first read, in the
// order the draws reach them. Without the state array, the first 273
// draws need none: each sums two computed words and writes a feed word
// that no draw before the 274th reads.
func (s *Source) warm() uint64 {
	tap, feed := s.tap-1, s.feed-1 // feed runs from 333 down to 0 here
	if tap < 0 {
		tap += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.vec == nil {
		if s.n < rngTap {
			s.n++
			return uint64(s.word(feed) + s.word(tap))
		}
		s.fill()
	}
	v := s.vec
	v[feed] = s.word(feed)
	if s.n < rngTap {
		v[tap] = s.word(tap)
	}
	s.n++
	x := v[feed] + v[tap]
	v[feed] = x
	return uint64(x)
}

// word is state word i as Seed leaves it.
func (s *Source) word(i int) int64 { return lehmer(s.x, i) ^ cooked[i] }

// fill allocates the state at the 274th draw after Seed and stores
// what draws 1..273 would have left in it: draw k reads tap word 607−k
// and writes feed word 334−k, the sum of both.
func (s *Source) fill() {
	v := new([rngLen]int64)
	for k := 1; k <= rngTap; k++ {
		tap, feed := rngLen-k, feed0-k
		v[tap] = s.word(tap)
		v[feed] = s.word(feed) + v[tap]
	}
	s.vec = v
}
