package noc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestFingerprintStable: a zero config and its explicit defaults hash
// identically, and the digest is deterministic across calls.
func TestFingerprintStable(t *testing.T) {
	zero := Config{}
	explicit := Config{
		Mesh:  topology.New10x10(),
		Width: tech.Width16B, VCsPerClass: 8, BufDepth: 4,
		EscapeTimeout: 16, MulticastEpoch: 256, VCTTableSize: 64,
		WireMMPerCycle: 2.5, LocalSpeedup: 1,
		ShortcutWidthBytes: tech.ShortcutWidthBytes,
	}
	if zero.Fingerprint() != explicit.Fingerprint() {
		t.Error("zero config and explicit defaults fingerprint differently")
	}
	if zero.Fingerprint() != zero.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
	if len(zero.Fingerprint()) != 32 {
		t.Errorf("fingerprint length %d, want 32 hex chars", len(zero.Fingerprint()))
	}
}

// fingerprintMutation changes one Config field (named by its path, e.g.
// "Fault.RFBER"; a "/suffix" distinguishes several mutations of one
// field) to a non-default value.
type fingerprintMutation struct {
	field  string
	mutate func(c *Config)
}

func fingerprintMutations() []fingerprintMutation {
	return []fingerprintMutation{
		{"Mesh", func(c *Config) { c.Mesh = topology.New(8, 8) }},
		{"Width", func(c *Config) { c.Width = tech.Width4B }},
		{"VCsPerClass", func(c *Config) { c.VCsPerClass = 4 }},
		{"BufDepth", func(c *Config) { c.BufDepth = 8 }},
		{"EscapeTimeout", func(c *Config) { c.EscapeTimeout = 32 }},
		{"Shortcuts", func(c *Config) { c.Shortcuts = []shortcut.Edge{{From: 0, To: 99}} }},
		{"Shortcuts/order", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 90, To: 9}, {From: 0, To: 99}}
		}},
		{"WireShortcuts", func(c *Config) {
			c.Shortcuts = []shortcut.Edge{{From: 0, To: 99}}
			c.WireShortcuts = true
		}},
		{"RFEnabled", func(c *Config) { c.RFEnabled = []int{0, 5, 9} }},
		{"Multicast", func(c *Config) { c.Multicast = MulticastVCT }},
		{"MulticastReceivers", func(c *Config) { c.MulticastReceivers = []int{3, 7} }},
		{"MulticastEpoch", func(c *Config) { c.MulticastEpoch = 128 }},
		{"VCTTableSize", func(c *Config) { c.VCTTableSize = 32 }},
		{"WireMMPerCycle", func(c *Config) { c.WireMMPerCycle = 5 }},
		{"LocalSpeedup", func(c *Config) { c.LocalSpeedup = 2 }},
		{"ShortcutWidthBytes", func(c *Config) { c.ShortcutWidthBytes = 32 }},
		{"Fault.MeshBER", func(c *Config) { c.Fault.MeshBER = 1e-6 }},
		{"Fault.RFBER", func(c *Config) { c.Fault.RFBER = 1e-6 }},
		{"Fault.MisrouteRate", func(c *Config) { c.Fault.MisrouteRate = 1e-3 }},
		{"Fault.MisdeliverRate", func(c *Config) { c.Fault.MisdeliverRate = 1e-3 }},
		{"Fault.DuplicateRate", func(c *Config) { c.Fault.DuplicateRate = 1e-3 }},
		{"Fault.CreditLeakRate", func(c *Config) { c.Fault.CreditLeakRate = 1e-3 }},
		{"Fault.StuckVCRate", func(c *Config) { c.Fault.StuckVCRate = 1e-3 }},
		{"Fault.RetryLimit", func(c *Config) { c.Fault.RetryLimit = 3 }},
		{"Fault.BackoffBase", func(c *Config) { c.Fault.BackoffBase = 9 }},
		{"Fault.BackoffMax", func(c *Config) { c.Fault.BackoffMax = 512 }},
		{"Fault.Seed", func(c *Config) { c.Fault.Seed = 99 }},
		{"Integrity", func(c *Config) { c.Integrity = true }},
		{"Watchdog.Enabled", func(c *Config) { c.Watchdog = WatchdogConfig{Enabled: true} }},
		{"Watchdog.CheckEvery", func(c *Config) { c.Watchdog.CheckEvery = 512 }},
		{"Watchdog.StallHorizon", func(c *Config) { c.Watchdog.StallHorizon = 10_000 }},
		{"Watchdog.Grace", func(c *Config) { c.Watchdog.Grace = 1_000 }},
		{"AdaptiveRouting", func(c *Config) { c.AdaptiveRouting = true }},
	}
}

// TestFingerprintSensitivity: every semantically meaningful mutation
// must change the digest — a collision here silently serves one
// design's results for another.
func TestFingerprintSensitivity(t *testing.T) {
	base := Config{Mesh: topology.New10x10()}
	seen := map[string]string{base.Fingerprint(): "base"}
	for _, m := range fingerprintMutations() {
		c := base
		m.mutate(&c)
		got := c.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("mutation %q collides with %q (fingerprint %s)", m.field, prev, got)
		}
		seen[got] = m.field
	}
}

// TestFingerprintCoversEveryField: every field of Config (and of its
// FaultConfig and WatchdogConfig members) shapes results, so each must
// have a mutation in the sensitivity table. A field added without one
// fails here until it is hashed and tested.
func TestFingerprintCoversEveryField(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range fingerprintMutations() {
		field, _, _ := strings.Cut(m.field, "/")
		covered[field] = true
	}
	var walk func(typ reflect.Type, prefix string)
	walk = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, prefix+f.Name+".")
				continue
			}
			path := prefix + f.Name
			if !covered[path] {
				t.Errorf("Config field %s has no fingerprint mutation", path)
			}
			delete(covered, path)
		}
	}
	walk(reflect.TypeOf(Config{}), "")
	for field := range covered {
		t.Errorf("fingerprint mutation names %s, which is not a Config field", field)
	}
}
