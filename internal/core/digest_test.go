package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/sched"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// resultDigest is a SHA-256 over what a learning run produces: the
// learned table's Snapshot (keys and value bits), the extracted plan
// and its makespan.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, e := range res.Table.Snapshot() {
		put(uint64(e.Key.Task))
		put(uint64(e.Key.VM))
		put(math.Float64bits(e.Value))
	}
	for _, e := range res.Plan.Entries() {
		h.Write([]byte(e.Activation))
		put(uint64(e.VM))
	}
	put(math.Float64bits(res.PlanMakespan))
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest learns w on fl twice — once with engines of its own and
// once from a pool whose engine last served another problem (the
// daemon path) — and requires both runs to hash to want.
func checkDigest(t *testing.T, w *dag.Workflow, fl *cloud.Fleet, episodes int, want string) {
	t.Helper()
	pool := sim.NewPool()
	other, err := pool.Acquire(montage50(t, 2), fleet(t, 16), &sched.MCT{}, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(other)
	for _, opts := range [][]Option{
		{WithSeed(17)},
		{WithSeed(17), WithEnginePool(pool)},
	} {
		l, err := NewLearner(Config{Workflow: w, Fleet: fl, Episodes: episodes}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Learn()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != want {
			t.Errorf("%d-option run: digest %s, want %s", len(opts), got, want)
		}
	}
	if reused, _ := pool.Stats(); reused == 0 {
		t.Fatal("the pooled run never rebound an engine")
	}
}

// TestLearnerPinnedDigest pins what the Learner learns on Montage-50
// × the 9-VM fleet, a table that fits in one band. The digest was
// recorded when this table was built by a dense constructor that had
// been checked against a map backed one, so it holds today's table to
// the values both produced.
func TestLearnerPinnedDigest(t *testing.T) {
	w := montage50(t, 6)
	fl := fleet(t, 16)
	if nv := len(fl.VMs); nv != 9 {
		t.Fatalf("fleet has %d VMs, want 9", nv)
	}
	checkDigest(t, w, fl, 10, "e24a968758623833a31274022f685dc371861e96030d5c193cf7e7c3a262d827")
}

// TestLearnerBandedEquivalence pins the same on a shape that spans
// several bands: 300 activations × 144 VMs is three bands of 128 rows.
// The digest was recorded when this shape was one eagerly allocated
// dense band.
func TestLearnerBandedEquivalence(t *testing.T) {
	w := trace.MontageN(rand.New(rand.NewSource(6)), 300)
	fl, err := cloud.FleetScaled(256)
	if err != nil {
		t.Fatal(err)
	}
	if nv := len(fl.VMs); nv != 144 {
		t.Fatalf("fleet has %d VMs, want 144", nv)
	}
	checkDigest(t, w, fl, 5, "611bef595e94ff178610170ab96a32e1acfea33a30f82a954b21c8120480b2c5")
}
