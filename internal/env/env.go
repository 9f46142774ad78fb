// Package env defines the environment-configuration abstraction at the heart
// of Genet: a Space of named parameter dimensions (Tables 3, 4, 5 of the
// paper), Config points inside a space, and the curriculum Distribution that
// Genet's training loop updates as it promotes rewarding configurations.
//
// A Config does not itself simulate anything; the abr, cc, and lb packages
// interpret a Config's dimensions to instantiate concrete simulated
// environments.
package env

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Dimension is one named environment parameter with an inclusive range.
type Dimension struct {
	Name string
	Min  float64
	Max  float64
	// Integer marks dimensions that must round to whole values when
	// sampled (e.g. queue size in packets, number of jobs).
	Integer bool
	// Log marks scale-free dimensions (bandwidth, job size) that are
	// sampled and searched log-uniformly. The paper initializes training
	// distributions "uniform or exponential along each parameter"
	// (§4.2); log-uniform is the scale-free reading for parameters whose
	// range spans orders of magnitude.
	Log bool
}

// Validate reports whether the dimension is well formed.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return errors.New("env: dimension with empty name")
	}
	if math.IsNaN(d.Min) || math.IsNaN(d.Max) || d.Max < d.Min {
		return fmt.Errorf("env: dimension %q has invalid range [%v, %v]", d.Name, d.Min, d.Max)
	}
	if d.Log && d.Min <= 0 {
		return fmt.Errorf("env: log dimension %q needs a positive lower bound, got %v", d.Name, d.Min)
	}
	return nil
}

// fromFrac maps a fraction in [0,1] onto the dimension's range, in log
// space for Log dimensions.
func (d Dimension) fromFrac(u float64) float64 {
	u = math.Max(0, math.Min(1, u))
	if d.Log && d.Max > d.Min {
		return d.Min * math.Exp(u*math.Log(d.Max/d.Min))
	}
	return d.Min + u*(d.Max-d.Min)
}

// toFrac maps a value in the dimension's range to a fraction in [0,1].
func (d Dimension) toFrac(v float64) float64 {
	if d.Max <= d.Min {
		return 0
	}
	if d.Log {
		v = math.Max(d.Min, math.Min(d.Max, v))
		return math.Log(v/d.Min) / math.Log(d.Max/d.Min)
	}
	return (v - d.Min) / (d.Max - d.Min)
}

// Space is an ordered set of dimensions: the search space over environment
// configurations. The order of dimensions is significant; Config values are
// positional.
type Space struct {
	dims  []Dimension
	index map[string]int
}

// NewSpace builds a space from dimensions. It returns an error on duplicate
// or invalid dimensions.
func NewSpace(dims ...Dimension) (*Space, error) {
	s := &Space{index: make(map[string]int, len(dims))}
	for _, d := range dims {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("env: duplicate dimension %q", d.Name)
		}
		s.index[d.Name] = len(s.dims)
		s.dims = append(s.dims, d)
	}
	if len(s.dims) == 0 {
		return nil, errors.New("env: space with no dimensions")
	}
	return s, nil
}

// MustSpace is NewSpace that panics on error; for package-level presets.
func MustSpace(dims ...Dimension) *Space {
	s, err := NewSpace(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims returns a copy of the dimensions in order.
func (s *Space) Dims() []Dimension { return append([]Dimension(nil), s.dims...) }

// NumDims returns the dimensionality of the space.
func (s *Space) NumDims() int { return len(s.dims) }

// DimIndex returns the positional index of the named dimension, or -1.
func (s *Space) DimIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Config is a point in a Space: one concrete environment configuration,
// e.g. [BW: 2-3 Mbps, BW change frequency: 0-20 s, buffer: 5-10 s] collapsed
// to sampled scalars. Values are positional with respect to the space.
type Config struct {
	space  *Space
	values []float64
}

// NewConfig wraps values as a configuration in space, clamping each value to
// its dimension range and rounding integer dimensions.
func (s *Space) NewConfig(values []float64) (Config, error) {
	if len(values) != len(s.dims) {
		return Config{}, fmt.Errorf("env: config has %d values for %d dims", len(values), len(s.dims))
	}
	v := make([]float64, len(values))
	for i, x := range values {
		d := s.dims[i]
		if math.IsNaN(x) {
			return Config{}, fmt.Errorf("env: NaN value for dimension %q", d.Name)
		}
		x = math.Max(d.Min, math.Min(d.Max, x))
		if d.Integer {
			x = math.Round(x)
		}
		v[i] = x
	}
	return Config{space: s, values: v}, nil
}

// Space returns the space this config belongs to.
func (c Config) Space() *Space { return c.space }

// Values returns a copy of the positional values.
func (c Config) Values() []float64 { return append([]float64(nil), c.values...) }

// Get returns the value of the named dimension; it panics on unknown names
// so misspelled parameters fail loudly in tests rather than silently reading
// zero.
func (c Config) Get(name string) float64 {
	i := c.space.DimIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("env: config has no dimension %q", name))
	}
	return c.values[i]
}

// With returns a copy of the config with the named dimension set to v
// (clamped to the dimension's range).
func (c Config) With(name string, v float64) Config {
	i := c.space.DimIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("env: config has no dimension %q", name))
	}
	vals := c.Values()
	vals[i] = v
	out, err := c.space.NewConfig(vals)
	if err != nil {
		panic(err) // unreachable: same space, finite value
	}
	return out
}

// Unit returns the config's values normalized to [0,1] per dimension
// (log-scaled for Log dimensions). Zero-width dimensions map to 0.
func (c Config) Unit() []float64 {
	u := make([]float64, len(c.values))
	for i, d := range c.space.dims {
		u[i] = d.toFrac(c.values[i])
	}
	return u
}

// FromUnit maps a point in [0,1]^d back into the space (log-scaled for Log
// dimensions).
func (s *Space) FromUnit(u []float64) (Config, error) {
	if len(u) != len(s.dims) {
		return Config{}, fmt.Errorf("env: unit point has %d values for %d dims", len(u), len(s.dims))
	}
	vals := make([]float64, len(u))
	for i, d := range s.dims {
		vals[i] = d.fromFrac(u[i])
	}
	return s.NewConfig(vals)
}

// Sample draws a random configuration from the space: uniform per linear
// dimension, log-uniform per Log dimension.
func (s *Space) Sample(rng *rand.Rand) Config {
	vals := make([]float64, len(s.dims))
	for i, d := range s.dims {
		vals[i] = d.fromFrac(rng.Float64())
	}
	c, err := s.NewConfig(vals)
	if err != nil {
		panic(err) // unreachable: values are in range by construction
	}
	return c
}

// Default returns the configuration at the given named defaults, with any
// unnamed dimension at its range midpoint (geometric midpoint for Log
// dimensions).
func (s *Space) Default(defaults map[string]float64) Config {
	vals := make([]float64, len(s.dims))
	for i, d := range s.dims {
		if v, ok := defaults[d.Name]; ok {
			vals[i] = v
		} else if d.Log {
			vals[i] = math.Sqrt(d.Min * d.Max)
		} else {
			vals[i] = (d.Min + d.Max) / 2
		}
	}
	c, err := s.NewConfig(vals)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the config as "name=value" pairs in dimension order.
func (c Config) String() string {
	var b strings.Builder
	for i, d := range c.space.dims {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.3g", d.Name, c.values[i])
	}
	return b.String()
}

// Names returns the dimension names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.dims))
	for i, d := range s.dims {
		names[i] = d.Name
	}
	return names
}
