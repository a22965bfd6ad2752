package randsrc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testSeeds covers the seed normalisation's edges (0, the substitute
// 89482311 that 0 maps to, multiples of 2³¹−1 and their neighbours,
// negatives, values past 2⁴⁰ and the int64 extremes) and a spread of
// ordinary seeds.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, 2, 42, -1, -2, -7, 89482311, -89482311,
		mod, 2 * mod, -mod, mod - 1, mod + 1, 1000 * mod, 1000*mod + 89482311,
		1 << 31, 1 << 40, 1<<40 + 12345, 1 << 62, -(1 << 50),
		1<<63 - 1, -1 << 63,
	}
	r := rand.New(rand.NewSource(2024))
	for len(seeds) < 220 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	return seeds
}

// compare draws n values through each rand.Rand method from got and
// want in turn, failing on the first difference.
func compare(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 4:
			g, w = got.Intn(1000), want.Intn(1000)
		}
		if g != w {
			t.Fatalf("seed %d: draw %d = %v, want %v", seed, i, g, w)
		}
	}
}

// TestMatchesStdlib: a Source yields rand.NewSource's stream, fresh
// and re-seeded mid-stream (before, at and past the draws where lazy
// computation ends).
func TestMatchesStdlib(t *testing.T) {
	seeds := testSeeds()
	src := New(0)
	got := rand.New(src)
	for i, seed := range seeds {
		compare(t, seed, rand.New(New(seed)), rand.New(rand.NewSource(seed)), 2000)
		// Reseed the shared source after a varying number of draws.
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		compare(t, seed, got, want, []int{0, 1, 95, 272, 273, 333, 334, 606, 607, 2000}[i%10])
		next := seeds[(i+1)%len(seeds)]
		got.Seed(next)
		compare(t, next, got, rand.New(rand.NewSource(next)), 2000)
	}
}

// TestSeedAllocs: a source allocates nothing through its 273rd draw
// after Seed, allocates its state once at the 274th, and keeps it:
// re-seeding and drawing again, past 273 or not, allocate nothing.
func TestSeedAllocs(t *testing.T) {
	seed := int64(0)
	draws := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			seed++
			var s Source
			s.Seed(seed)
			for i := 0; i < n; i++ {
				s.Uint64()
			}
			if (s.vec != nil) != (n > rngTap) {
				t.Fatalf("after %d draws the state is allocated: %v", n, s.vec != nil)
			}
		})
	}
	if a := draws(rngTap); a != 0 {
		t.Fatalf("Seed and %d draws allocate %v times, want 0", rngTap, a)
	}
	if a := draws(rngTap + 1); a != 1 {
		t.Fatalf("Seed and %d draws allocate %v times, want 1", rngTap+1, a)
	}
	s := New(1)
	for i := 0; i <= rngTap; i++ {
		s.Uint64()
	}
	if a := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
		for i := 0; i < rngLen; i++ {
			s.Uint64()
		}
	}); a != 0 {
		t.Fatalf("re-seeding a source with state and drawing allocate %v times, want 0", a)
	}
}

// FuzzSource: for any seed, a Source drawn n times, re-seeded and
// drawn again matches fresh stdlib sources.
func FuzzSource(f *testing.F) {
	for i, seed := range testSeeds()[:40] {
		f.Add(seed, uint16(i*37), seed^int64(i), uint16(700-i*11))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, reseed int64, m uint16) {
		got := rand.New(New(seed))
		compare(t, seed, got, rand.New(rand.NewSource(seed)), int(n%2048))
		got.Seed(reseed)
		compare(t, reseed, got, rand.New(rand.NewSource(reseed)), int(m%2048))
	})
}

// TestNoStdlibSeededSource: outside this package and the frozen
// end-to-end benchmark (bench/), no program file seeds math/rand's
// own generator, so every seeded stream is this package's.
func TestNoStdlibSeededSource(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var found []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch {
			case rel == "bench", rel == filepath.Join("internal", "randsrc"),
				d.Name() == "testdata", rel != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "math/rand" {
				continue
			}
			name := "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "NewSource" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
						found = append(found, fset.Position(sel.Pos()).String())
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range found {
		t.Errorf("%s: rand.NewSource; use randsrc.New", at)
	}
}
