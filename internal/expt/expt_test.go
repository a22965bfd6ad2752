package expt

import (
	"reflect"
	"strings"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/loadgen"
)

// smallOpts keeps harness tests fast: few episodes, two fleets.
func smallOpts() Options {
	return Options{Seed: 1, Episodes: 5, VCPUs: []int{16, 32}}
}

func TestGridIs27(t *testing.T) {
	g := grid()
	if len(g) != 27 {
		t.Fatalf("grid = %d combos, want 27", len(g))
	}
	seen := make(map[comboKey]bool)
	for _, c := range g {
		if seen[c] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[c] = true
	}
	// Paper row order: first row is (0.1, 0.1, 0.1), last is (1,1,1).
	if g[0] != (comboKey{0.1, 0.1, 0.1}) || g[26] != (comboKey{1, 1, 1}) {
		t.Fatalf("order: first %v last %v", g[0], g[26])
	}
}

func TestScenarios(t *testing.T) {
	sc := Scenarios()
	if len(sc) != 3 || sc[0].Name != "C1" || sc[0].Alpha != 1.0 ||
		sc[1].Alpha != 0.5 || sc[2].Alpha != 0.1 {
		t.Fatalf("Scenarios = %+v", sc)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	s := tab.String()
	for _, want := range []string{"9", "11", "15", "16", "32", "64"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
	if tab.Rows() != 3 {
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestSweepAndTables2and3(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	o := smallOpts()
	s, err := RunSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.LearnMillis) != 27 {
		t.Fatalf("sweep combos = %d", len(s.LearnMillis))
	}
	for combo, byV := range s.PlanMakespan {
		for _, v := range o.VCPUs {
			if byV[v] <= 0 {
				t.Fatalf("combo %v on %d vCPUs: makespan %v", combo, v, byV[v])
			}
			// Options left Workflow nil, so the sweep used the
			// default Montage 50; plans must cover it.
			if s.Plans[combo][v].Len() != 50 {
				t.Fatalf("combo %v: plan size %d", combo, s.Plans[combo][v].Len())
			}
		}
	}
	t2 := Table2(s)
	if t2.Rows() != 27 {
		t.Fatalf("Table II rows = %d", t2.Rows())
	}
	t3 := Table3(s)
	if t3.Rows() != 27 {
		t.Fatalf("Table III rows = %d", t3.Rows())
	}
	if !strings.Contains(t3.String(), "Simulated execution time") {
		t.Fatal("Table III title missing")
	}
}

func TestTable4ShapeAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 is slow")
	}
	o := smallOpts()
	rows, err := RunTable4(o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 rows (HEFT + 3 scenarios) per fleet.
	if len(rows) != 4*len(o.VCPUs) {
		t.Fatalf("rows = %d", len(rows))
	}
	perV := map[int]int{}
	heftSeen := map[int]bool{}
	for _, r := range rows {
		if r.Makespan <= 0 {
			t.Fatalf("row %+v has non-positive makespan", r)
		}
		perV[r.VCPUs]++
		if r.Algorithm == "HEFT" {
			heftSeen[r.VCPUs] = true
		}
	}
	for _, v := range o.VCPUs {
		if perV[v] != 4 || !heftSeen[v] {
			t.Fatalf("fleet %d: %d rows, heft=%v", v, perV[v], heftSeen[v])
		}
	}
	tab := Table4(rows)
	s := tab.String()
	if !strings.Contains(s, "HEFT") || !strings.Contains(s, "ReASSIgN") {
		t.Fatalf("Table IV rendering:\n%s", s)
	}
	// Durations use the paper's HH:MM:SS.mmm format.
	if !strings.Contains(s, ":") {
		t.Fatalf("Table IV durations not formatted:\n%s", s)
	}
}

// TestTable4Deterministic pins what running Table IV in virtual time
// buys: the same options give the same rows, bit for bit.
func TestTable4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 is slow")
	}
	a, err := RunTable4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Table IV rows differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestTable4Shape checks the paper's Table IV claim over ten seeds at
// the default options: ReASSIgN's learned plans beat HEFT's on the 32-
// and 64-vCPU fleets on average, and its advantage does not shrink as
// the fleet grows. The ratio of a row is its makespan over the HEFT
// row of the same seed and fleet.
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full Table IV runs")
	}
	vcpus := cloud.Table1VCPUs()
	sum := make(map[int]float64)
	n := make(map[int]int)
	heftWins := make(map[int]int)
	for seed := int64(1); seed <= 10; seed++ {
		rows, err := RunTable4(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		heft := make(map[int]float64)
		for _, r := range rows {
			if r.Algorithm == "HEFT" {
				heft[r.VCPUs] = r.Makespan
			}
		}
		for _, r := range rows {
			if r.Algorithm == "HEFT" {
				continue
			}
			ratio := r.Makespan / heft[r.VCPUs]
			sum[r.VCPUs] += ratio
			n[r.VCPUs]++
			if ratio > 1 {
				heftWins[r.VCPUs]++
			}
		}
	}
	mean := make(map[int]float64)
	for _, v := range vcpus {
		mean[v] = sum[v] / float64(n[v])
		t.Logf("%d vCPUs: mean ReASSIgN/HEFT %.4f, HEFT wins %d/%d rows", v, mean[v], heftWins[v], n[v])
	}
	for _, v := range []int{32, 64} {
		if mean[v] >= 1 {
			t.Errorf("%d vCPUs: mean ReASSIgN/HEFT ratio %.4f, want < 1", v, mean[v])
		}
	}
	for i := 1; i < len(vcpus); i++ {
		if mean[vcpus[i]] > mean[vcpus[i-1]] {
			t.Errorf("advantage shrinks from %d to %d vCPUs: ratio %.4f -> %.4f",
				vcpus[i-1], vcpus[i], mean[vcpus[i-1]], mean[vcpus[i]])
		}
	}
}

func TestTable5CoversAllActivations(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 is slow")
	}
	o := smallOpts()
	tab, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 50 {
		t.Fatalf("Table V rows = %d, want 50", tab.Rows())
	}
	tsv := tab.TSV()
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) != 51 {
		t.Fatalf("TSV lines = %d", len(lines))
	}
	for _, l := range lines[1:] {
		if len(strings.Split(l, "\t")) != 5 {
			t.Fatalf("bad TSV row %q", l)
		}
	}
}

func TestTable5BigVMShareShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Seed: 3, Episodes: 30, VCPUs: []int{16}}
	share, err := Table5BigVMShare(o)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative Table V finding: ReASSIgN concentrates
	// activations on the robust (t2.2xlarge) VM more than HEFT does.
	for _, sc := range Scenarios() {
		if share[sc.Name] <= share["HEFT"] {
			t.Errorf("%s big-VM share %.2f not above HEFT %.2f", sc.Name, share[sc.Name], share["HEFT"])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := Options{Seed: 2, Episodes: 3, VCPUs: []int{16}}
	cases := map[string]func() (int, error){
		"rho": func() (int, error) {
			tab, err := AblationRho(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"mu": func() (int, error) {
			tab, err := AblationMu(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"policy": func() (int, error) {
			tab, err := AblationPolicy(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"episodes": func() (int, error) {
			tab, err := AblationEpisodes(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"rule": func() (int, error) {
			tab, err := AblationRule(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"discount": func() (int, error) {
			tab, err := AblationDiscount(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"bootstrap": func() (int, error) {
			tab, err := AblationBootstrap(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"costweight": func() (int, error) {
			tab, err := AblationCostWeight(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"schedules": func() (int, error) {
			tab, err := AblationSchedules(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
		"clustering": func() (int, error) {
			tab, err := AblationClustering(o)
			if err != nil {
				return 0, err
			}
			return tab.Rows(), nil
		},
	}
	for name, run := range cases {
		rows, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rows < 2 {
			t.Fatalf("%s: only %d rows", name, rows)
		}
	}
}

func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := Options{Seed: 2, Episodes: 3}
	tab, err := BaselineComparison(o, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"FCFS", "HEFT", "MinMin", "ReASSIgN"} {
		if !strings.Contains(s, want) {
			t.Fatalf("baseline table missing %q:\n%s", want, s)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Episodes != 100 {
		t.Fatalf("episodes = %d", o.Episodes)
	}
	if len(o.VCPUs) != 3 {
		t.Fatalf("vcpus = %v", o.VCPUs)
	}
	if o.Workflow == nil || o.Workflow.Len() != 50 {
		t.Fatal("default workflow not Montage 50")
	}
	if o.TrainFluct == nil || o.ExecFluct == nil {
		t.Fatal("fluctuation defaults missing")
	}
	if _, err := cloud.FleetTable1(o.VCPUs[0]); err != nil {
		t.Fatal(err)
	}
}

func TestLearningCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	chart, err := LearningCurves(Options{Seed: 1, Episodes: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 4 {
		t.Fatalf("series = %d", len(chart.Series))
	}
	for _, s := range chart.Series {
		if len(s.X) != 8 || len(s.Y) != 8 {
			t.Fatalf("series %q has %d/%d points", s.Name, len(s.X), len(s.Y))
		}
	}
	svg := chart.SVG()
	if !strings.Contains(svg, "learning curves") {
		t.Fatal("title missing")
	}
}

// TestStudies: the open-system study renders one row per scheduling
// lane (its lanes' figures are checked in package loadgen).
func TestStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := StudyOpenSystem(Options{Seed: 2, Episodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(loadgen.AllPolicies()); tab.Rows() != want {
		t.Fatalf("open-system rows = %d, want one per lane (%d)", tab.Rows(), want)
	}
}

func TestStudyScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := StudyScaling(Options{Seed: 2, Episodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("rows = %d", tab.Rows())
	}
}

func TestScheduleCharts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	charts, err := ScheduleCharts(Options{Seed: 1, Episodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != 2 {
		t.Fatalf("charts = %d", len(charts))
	}
	for _, c := range charts {
		if len(c.Spans) != 50 {
			t.Fatalf("chart %q has %d spans", c.Title, len(c.Spans))
		}
		if c.Makespan() <= 0 {
			t.Fatalf("chart %q empty", c.Title)
		}
	}
}
