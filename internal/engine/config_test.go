package engine

import (
	"math"
	"testing"
)

// TestConfigDefaultsZeroValues: the zero Config resolves to the documented
// defaults.
func TestConfigDefaultsZeroValues(t *testing.T) {
	var c Config
	c.defaults()
	if c.DecayFactor != 0.9 {
		t.Errorf("DecayFactor = %v, want 0.9", c.DecayFactor)
	}
	if c.DecayEvery != 400 {
		t.Errorf("schedule defaults wrong: %+v", c)
	}
}

// TestConfigNoDecayFlag: there is no separate flag to turn decay off; a
// campaign that wants none sets DecayEvery past its budget, so an explicit
// DecayEvery must survive defaults unchanged.
func TestConfigNoDecayFlag(t *testing.T) {
	for _, every := range []uint64{1000, math.MaxUint64} {
		c := Config{DecayEvery: every}
		c.defaults()
		if c.DecayEvery != every {
			t.Errorf("DecayEvery = %d, want %d", c.DecayEvery, every)
		}
	}
}

// TestConfigEdgeValuesSurvive: explicit in-range values are preserved, and
// an out-of-range decay factor falls back to the default.
func TestConfigEdgeValuesSurvive(t *testing.T) {
	c := Config{DecayFactor: 0.5, DecayEvery: 1000}
	c.defaults()
	if c.DecayFactor != 0.5 || c.DecayEvery != 1000 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
	for _, f := range []float64{-1, 1, 7} {
		c = Config{DecayFactor: f}
		c.defaults()
		if c.DecayFactor != 0.9 {
			t.Errorf("DecayFactor %v resolved to %v, want fallback 0.9", f, c.DecayFactor)
		}
	}
}
