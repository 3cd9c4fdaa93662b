package main

import (
	"reflect"
	"strings"
	"testing"

	"droidfuzz/internal/baseline"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/device"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/relation"
)

// flagDefaults is the fleetConfig main builds when no flag is given.
func flagDefaults() fleetConfig {
	return fleetConfig{devices: "A1,B,D", iters: 20000, seed: 1, rounds: 4, reset: "never"}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mod     func(*fleetConfig)
		wantErr string // "" means valid
	}{
		{"defaults", func(*fleetConfig) {}, ""},
		{"negative iters", func(c *fleetConfig) { c.iters = -1 }, "-iters"},
		{"negative rounds", func(c *fleetConfig) { c.rounds = -1 }, "-rounds"},
		{"negative pipeline", func(c *fleetConfig) { c.pipeline = -1 }, "-pipeline"},
		{"negative workers", func(c *fleetConfig) { c.workers = -1 }, "-workers"},
		{"negative batch", func(c *fleetConfig) { c.batch = -1 }, "-batch"},
		{"unknown device", func(c *fleetConfig) { c.devices = "A1,Z9" }, "unknown device model"},
		{"remote and coord", func(c *fleetConfig) { c.remote, c.coord = "127.0.0.1:7100", "127.0.0.1:7200" }, "mutually exclusive"},
		{"remote ignores devices", func(c *fleetConfig) { c.remote, c.devices = "127.0.0.1:7100", "Z9" }, ""},
		{"params in-process", func(c *fleetConfig) { c.params = true }, ""},
		{"params with coord", func(c *fleetConfig) { c.coord, c.params = "127.0.0.1:7200", true }, ""},
		// Remote brokers probe without knob discovery, so -params would
		// silently do nothing.
		{"params with remote", func(c *fleetConfig) { c.remote, c.params = "127.0.0.1:7100", true }, "-params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := flagDefaults()
			tc.mod(&cfg)
			err := cfg.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate: %v, want nil", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("validate: nil, want error mentioning %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("validate: %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestOneDeviceFleetIsSerialSchedule: a one-device fleet runs the serial
// schedule, so its campaign reproduces itself round for round and equals a
// single engine driven through the same slices.
func TestOneDeviceFleetIsSerialSchedule(t *testing.T) {
	cfg := flagDefaults()
	cfg.devices, cfg.iters, cfg.rounds = "A1", 1200, 2

	fleetRounds := func() []engine.Stats {
		d, _, err := newFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []engine.Stats
		campaign(d, cfg.iters, cfg.rounds, func() { out = append(out, d.Stats()["A1"]) })
		return out
	}
	first, second := fleetRounds(), fleetRounds()
	if len(first) != cfg.rounds {
		t.Fatalf("got %d rounds of stats, want %d", len(first), cfg.rounds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("one-device fleet does not reproduce itself:\n%+v\n%+v", first, second)
	}

	model, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := baseline.NewDroidFuzz(device.New(model), relation.New(), crash.NewDedup(),
		engine.Config{Seed: cfg.seed, Reset: cfg.reset})
	if err != nil {
		t.Fatal(err)
	}
	var want []engine.Stats
	for r := 0; r < cfg.rounds; r++ {
		eng.RunSchedule(cfg.iters/cfg.rounds, 0, 1)
		want = append(want, eng.Stats())
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("one-device fleet diverged from the serial schedule:\nfleet  %+v\nserial %+v", first, want)
	}
}
