package market

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"reassign/internal/cloud"
)

func testFleet(t *testing.T) *cloud.Fleet {
	t.Helper()
	f, err := cloud.FleetTable1(16)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultCatalogue(t *testing.T) {
	c := DefaultCatalogue()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	provs := c.Providers()
	if len(provs) != 3 {
		t.Fatalf("want 3 providers, got %v", provs)
	}
	for _, typ := range cloud.Types() {
		for _, p := range provs {
			o, ok := c.Find(p, typ.Name)
			if !ok {
				t.Fatalf("no offer for %s/%s", p, typ.Name)
			}
			if o.SpotBase >= o.OnDemand {
				t.Fatalf("%s/%s spot base %.4f not below on-demand %.4f", p, typ.Name, o.SpotBase, o.OnDemand)
			}
		}
	}
}

func TestRegimeByName(t *testing.T) {
	for _, r := range Regimes() {
		got, ok := RegimeByName(r.Name)
		if !ok || got.Name != r.Name {
			t.Fatalf("RegimeByName(%q) = %+v, %v", r.Name, got, ok)
		}
	}
	if _, ok := RegimeByName("nope"); ok {
		t.Fatal("unknown regime resolved")
	}
}

func genTrace(t *testing.T, regime string, seed int64) *Trace {
	t.Helper()
	r, ok := RegimeByName(regime)
	if !ok {
		t.Fatalf("unknown regime %q", regime)
	}
	tr, err := Generate(DefaultCatalogue(), testFleet(t), r, seed, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	for _, regime := range []string{"stable", "volatile", "hostile"} {
		a := encode(t, genTrace(t, regime, 42))
		b := encode(t, genTrace(t, regime, 42))
		if !bytes.Equal(a, b) {
			t.Fatalf("regime %s: two generations with the same seed differ", regime)
		}
		c := encode(t, genTrace(t, regime, 43))
		if bytes.Equal(a, c) {
			t.Fatalf("regime %s: different seeds produced identical traces", regime)
		}
	}
}

// TestGenerateGolden pins the generated traces themselves, not just
// their repeatability: digests of the seed-42 trace per regime,
// recorded when every price pair and VM still drew from a generator of
// its own. Generate now reseeds one generator per stream; any change
// to which draw feeds which stream moves these.
func TestGenerateGolden(t *testing.T) {
	for regime, want := range map[string]string{
		"stable":   "27449b41d7ce7b3deabb4439d8b21dc33239cc3bf6367cd699b3484d60c3b799",
		"volatile": "aa88a59071f3df793116f92b4df6a106eb846f167d1871f5228bd087cff1436c",
		"hostile":  "5112dc6a7bfebcf5dd65246129d3972e8ac5c7a1b8a7f7370350fd8991c7e3d2",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(encode(t, genTrace(t, regime, 42)))); got != want {
			t.Errorf("regime %s: trace digest %s, want %s", regime, got, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := genTrace(t, "hostile", 7)
	enc := encode(t, tr)
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, dec) {
		t.Fatal("decoded trace differs from the original")
	}
	if !bytes.Equal(enc, encode(t, dec)) {
		t.Fatal("re-encoded trace is not byte-identical")
	}
}

// TestMarketPlaybackBitIdentical is the playback determinism contract:
// the same trace bytes yield identical prices, billing integrals and
// event schedules across independent playbacks.
func TestMarketPlaybackBitIdentical(t *testing.T) {
	enc := encode(t, genTrace(t, "volatile", 99))
	load := func() *Playback {
		tr, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlayback(tr, DefaultCatalogue())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := load(), load()
	if !reflect.DeepEqual(p1.Events(), p2.Events()) {
		t.Fatal("event schedules differ")
	}
	for _, a := range p1.Trace().Assign {
		for ts := 0.0; ts <= p1.Horizon(); ts += 37.5 {
			if v1, v2 := p1.PriceAt(a.Provider, a.Type, a.Spot, ts), p2.PriceAt(a.Provider, a.Type, a.Spot, ts); v1 != v2 {
				t.Fatalf("vm %d price at %g differs: %v vs %v", a.VM, ts, v1, v2)
			}
			if c1, c2 := p1.VMCost(a.VM, 0, ts), p2.VMCost(a.VM, 0, ts); c1 != c2 {
				t.Fatalf("vm %d cost to %g differs: %v vs %v", a.VM, ts, c1, c2)
			}
		}
	}
	r1, r2 := p1.FleetCost(1800), p2.FleetCost(1800)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("fleet cost reports differ: %+v vs %+v", r1, r2)
	}
}

func TestCostMonotoneAndNonNegative(t *testing.T) {
	tr := genTrace(t, "hostile", 5)
	p, err := NewPlayback(tr, DefaultCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for ts := 0.0; ts <= p.Horizon(); ts += 60 {
		rep := p.FleetCost(ts)
		if rep.Total < 0 {
			t.Fatalf("negative cost %v at %g", rep.Total, ts)
		}
		if rep.Total < prev {
			t.Fatalf("cost not monotone: %v at %g after %v", rep.Total, ts, prev)
		}
		prev = rep.Total
		var sum float64
		for _, pc := range rep.ByProvider {
			if pc.Cost < 0 {
				t.Fatalf("provider %s negative cost %v", pc.Provider, pc.Cost)
			}
			sum += pc.Cost
		}
		if math.Abs(sum-rep.Total) > 1e-9 {
			t.Fatalf("provider split %v does not sum to total %v", sum, rep.Total)
		}
	}
}

func TestKillClipsBilling(t *testing.T) {
	// Hostile regime over a long horizon guarantees at least one kill
	// across seeds; assert billing stops at the traced kill time.
	tr := genTrace(t, "hostile", 11)
	p, err := NewPlayback(tr, DefaultCatalogue())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range tr.Assign {
		kill, dead := p.KillAt(a.VM)
		if !dead {
			continue
		}
		found = true
		at := p.VMCost(a.VM, 0, kill)
		after := p.VMCost(a.VM, 0, kill+600)
		if after != at {
			t.Fatalf("vm %d billed past its kill: %v then %v", a.VM, at, after)
		}
	}
	if !found {
		t.Skip("no kill drawn for this seed; adjust the seed if this starts skipping")
	}
}

func TestIntegrateStep(t *testing.T) {
	pts := []PricePoint{{At: 0, Price: 2}, {At: 10, Price: 4}}
	if got := integrateStep(pts, 0, 10); got != 20 {
		t.Fatalf("first segment: got %v want 20", got)
	}
	if got := integrateStep(pts, 5, 15); got != 2*5+4*5 {
		t.Fatalf("straddle: got %v want 30", got)
	}
	if got := integrateStep(pts, -5, 5); got != 2*10 {
		t.Fatalf("before first point: got %v want 20", got)
	}
	if got := integrateStep(pts, 12, 12); got != 0 {
		t.Fatalf("empty window: got %v want 0", got)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Trace { return genTrace(t, "stable", 1) }
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"bad-version", func(tr *Trace) { tr.Version = 9 }},
		{"bad-horizon", func(tr *Trace) { tr.Horizon = -1 }},
		{"unsorted-assign", func(tr *Trace) {
			if len(tr.Assign) < 2 {
				t.Skip("need 2 assigns")
			}
			tr.Assign[0], tr.Assign[1] = tr.Assign[1], tr.Assign[0]
		}},
		{"kill-without-notice", func(tr *Trace) {
			tr.Events = []VMEvent{{VM: 0, Kind: EvKill, At: 5}}
		}},
		{"notice-kill-backwards", func(tr *Trace) {
			tr.Events = []VMEvent{{VM: 0, Kind: EvNotice, At: 10, KillAt: 5},
				{VM: 0, Kind: EvKill, At: 5}}
		}},
		{"degrade-below-one", func(tr *Trace) {
			tr.Events = []VMEvent{{VM: 0, Kind: EvDegrade, At: 5, Slow: 0.5}}
		}},
		{"unknown-kind", func(tr *Trace) {
			tr.Events = []VMEvent{{VM: 0, Kind: "explode", At: 5}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := base()
			tc.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Fatal("validation accepted a corrupt trace")
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "{", "[]", `{"version":1}`, `{"version":1,"horizon":0}`} {
		if _, err := Decode(strings.NewReader(s)); err == nil {
			t.Fatalf("Decode(%q) accepted garbage", s)
		}
	}
}
