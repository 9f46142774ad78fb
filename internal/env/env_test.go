package env

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		Dimension{Name: "a", Min: 0, Max: 10},
		Dimension{Name: "b", Min: 1, Max: 100, Log: true},
		Dimension{Name: "c", Min: 2, Max: 8, Integer: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceRejectsDuplicates(t *testing.T) {
	_, err := NewSpace(
		Dimension{Name: "a", Min: 0, Max: 1},
		Dimension{Name: "a", Min: 0, Max: 2},
	)
	if err == nil {
		t.Fatal("duplicate dimension accepted")
	}
}

func TestNewSpaceRejectsEmpty(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Fatal("empty space accepted")
	}
}

func TestNewSpaceRejectsInvertedRange(t *testing.T) {
	if _, err := NewSpace(Dimension{Name: "a", Min: 2, Max: 1}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestNewSpaceRejectsNonPositiveLog(t *testing.T) {
	if _, err := NewSpace(Dimension{Name: "a", Min: 0, Max: 1, Log: true}); err == nil {
		t.Fatal("log dimension with zero lower bound accepted")
	}
}

func TestNewSpaceRejectsEmptyName(t *testing.T) {
	if _, err := NewSpace(Dimension{Min: 0, Max: 1}); err == nil {
		t.Fatal("unnamed dimension accepted")
	}
}

func TestConfigClampsAndRounds(t *testing.T) {
	s := testSpace(t)
	c, err := s.NewConfig([]float64{-5, 200, 4.6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Get("a") != 0 {
		t.Fatalf("a = %v, want clamped 0", c.Get("a"))
	}
	if c.Get("b") != 100 {
		t.Fatalf("b = %v, want clamped 100", c.Get("b"))
	}
	if c.Get("c") != 5 {
		t.Fatalf("c = %v, want rounded 5", c.Get("c"))
	}
}

func TestConfigRejectsNaN(t *testing.T) {
	s := testSpace(t)
	if _, err := s.NewConfig([]float64{math.NaN(), 1, 2}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestConfigRejectsWrongArity(t *testing.T) {
	s := testSpace(t)
	if _, err := s.NewConfig([]float64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestGetPanicsOnUnknown(t *testing.T) {
	s := testSpace(t)
	c := s.Default(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Get(unknown) did not panic")
		}
	}()
	c.Get("nope")
}

func TestWithReplacesOneValue(t *testing.T) {
	s := testSpace(t)
	c := s.Default(nil)
	c2 := c.With("a", 7)
	if c2.Get("a") != 7 {
		t.Fatalf("With did not set: %v", c2.Get("a"))
	}
	if c.Get("a") == 7 && c.Get("a") != 5 {
		t.Fatal("With mutated the original")
	}
	if c2.Get("b") != c.Get("b") {
		t.Fatal("With changed another dimension")
	}
}

func TestUnitFromUnitRoundTrip(t *testing.T) {
	s := testSpace(t)
	f := func(u1, u2, u3 float64) bool {
		u := []float64{frac(u1), frac(u2), frac(u3)}
		c, err := s.FromUnit(u)
		if err != nil {
			return false
		}
		back := c.Unit()
		// Integer dims round, so allow their grid resolution.
		return math.Abs(back[0]-u[0]) < 1e-9 &&
			math.Abs(back[1]-u[1]) < 1e-9 &&
			math.Abs(back[2]-u[2]) < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	x = math.Abs(x)
	return x - math.Floor(x)
}

func TestFromUnitLogScaling(t *testing.T) {
	s := testSpace(t)
	// b spans [1, 100] log-scaled: u=0.5 must land at the geometric mean 10.
	c, err := s.FromUnit([]float64{0, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get("b"); math.Abs(got-10) > 1e-9 {
		t.Fatalf("log midpoint = %v, want 10", got)
	}
}

func TestSampleWithinRanges(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		c := s.Sample(rng)
		if c.Get("a") < 0 || c.Get("a") > 10 {
			t.Fatalf("a out of range: %v", c.Get("a"))
		}
		if c.Get("b") < 1 || c.Get("b") > 100 {
			t.Fatalf("b out of range: %v", c.Get("b"))
		}
		cv := c.Get("c")
		if cv != math.Round(cv) {
			t.Fatalf("integer dim not integral: %v", cv)
		}
	}
}

func TestSampleLogUniformMedian(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(2))
	below := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if s.Sample(rng).Get("b") < 10 { // geometric mean of [1,100]
			below++
		}
	}
	fracBelow := float64(below) / n
	if fracBelow < 0.45 || fracBelow > 0.55 {
		t.Fatalf("log-uniform median check: %.3f of samples below geometric mean, want ~0.5", fracBelow)
	}
}

func TestDefaultUsesProvidedAndMidpoints(t *testing.T) {
	s := testSpace(t)
	c := s.Default(map[string]float64{"a": 3})
	if c.Get("a") != 3 {
		t.Fatalf("default a = %v", c.Get("a"))
	}
	if c.Get("b") != 10 { // geometric midpoint of log dim
		t.Fatalf("default b = %v, want 10", c.Get("b"))
	}
	if c.Get("c") != 5 { // arithmetic midpoint of [2,8]
		t.Fatalf("default c = %v, want 5", c.Get("c"))
	}
}

func TestShrinkLinear(t *testing.T) {
	s := MustSpace(Dimension{Name: "x", Min: 0, Max: 9})
	half, err := s.Shrink(1.0 / 3)
	if err != nil {
		t.Fatal(err)
	}
	d := half.Dims()[0]
	if d.Min != 3 || d.Max != 6 {
		t.Fatalf("shrink(1/3) = [%v, %v], want [3, 6]", d.Min, d.Max)
	}
}

func TestShrinkLog(t *testing.T) {
	s := MustSpace(Dimension{Name: "x", Min: 1, Max: 100, Log: true})
	sub, err := s.Shrink(0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := sub.Dims()[0]
	// Log midpoint 10, half width e^(ln(10)/... ): [10^0.5, 10^1.5].
	if math.Abs(d.Min-math.Sqrt(10)) > 1e-9 || math.Abs(d.Max-10*math.Sqrt(10)) > 1e-9 {
		t.Fatalf("log shrink = [%v, %v]", d.Min, d.Max)
	}
}

func TestShrinkRejectsBadFactor(t *testing.T) {
	s := testSpace(t)
	if _, err := s.Shrink(0); err == nil {
		t.Fatal("factor 0 accepted")
	}
	if _, err := s.Shrink(1.5); err == nil {
		t.Fatal("factor > 1 accepted")
	}
}

func TestConfigString(t *testing.T) {
	s := testSpace(t)
	str := s.Default(nil).String()
	for _, name := range []string{"a=", "b=", "c="} {
		if !strings.Contains(str, name) {
			t.Fatalf("String missing %q: %s", name, str)
		}
	}
}

func TestNamesOrder(t *testing.T) {
	s := testSpace(t)
	names := s.Names()
	if names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
}

func TestDimIndexUnknown(t *testing.T) {
	if testSpace(t).DimIndex("zz") != -1 {
		t.Fatal("unknown dim index should be -1")
	}
}
