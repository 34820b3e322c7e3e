package scenario

import (
	"fmt"
	"strconv"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// The fleet, topology, traffic, telemetry and health sections are tables
// of scalar keys. Each key is one row below: its YAML name, its kind and
// bound, and its field. Decoding and EmitYAML both read the rows, so a key
// is spelled once; fleet tenants, events and assertions keep their own
// code.

// A schemaKey is one scalar setting of a section S. The kind constructors
// (intKey, vniKey, ...) build set, which parses a value, checks its bound
// and stores it, and get, which prints the field so that set reads it back.
type schemaKey[S any] struct {
	name string
	set  func(s *S, v string) error
	get  func(s *S) string
}

// bound is the range a numeric key accepts.
type bound int

const (
	nonNegative bound = iota // >= 0
	positive                 // > 0
)

// gbps scales the Gbps keys to the bit rates the fabric takes.
const gbps = 1e9

var fleetKeys = []schemaKey[Fleet]{
	intKey("nodes", positive, func(f *Fleet) *int { return &f.Nodes }),
	boolKey("vniService", func(f *Fleet) *bool { return &f.VNIService }),
	vniKey("vniPoolMin", func(f *Fleet) *fabric.VNI { return &f.VNIPoolMin }),
	vniKey("vniPoolMax", func(f *Fleet) *fabric.VNI { return &f.VNIPoolMax }),
	durationKey("quarantine", nonNegative, func(f *Fleet) *sim.Duration { return &f.Quarantine }),
	intKey("podsPerNode", nonNegative, func(f *Fleet) *int { return &f.PodsPerNode }),
}

var topologyKeys = []schemaKey[fabric.TopologySpec]{
	intKey("groups", positive, func(t *fabric.TopologySpec) *int { return &t.Groups }),
	intKey("switchesPerGroup", positive, func(t *fabric.TopologySpec) *int { return &t.SwitchesPerGroup }),
	intKey("nodesPerSwitch", positive, func(t *fabric.TopologySpec) *int { return &t.NodesPerSwitch }),
	intKey("globalLinksPerPair", positive, func(t *fabric.TopologySpec) *int { return &t.GlobalLinksPerPair }),
	floatKey("globalBandwidthGbps", gbps, func(t *fabric.TopologySpec) *float64 { return &t.GlobalLinkBandwidthBits }),
	durationKey("globalLatency", nonNegative, func(t *fabric.TopologySpec) *sim.Duration { return &t.GlobalLinkPropagation }),
}

var trafficKeys = []schemaKey[TrafficSpec]{
	stringKey("name", nil, func(t *TrafficSpec) *string { return &t.Name }),
	stringKey("pattern", nil, func(t *TrafficSpec) *string { return &t.Pattern }),
	intKey("bytes", nonNegative, func(t *TrafficSpec) *int { return &t.Bytes }),
	intKey("iterations", positive, func(t *TrafficSpec) *int { return &t.Iterations }),
	durationKey("compute", nonNegative, func(t *TrafficSpec) *sim.Duration { return &t.Compute }),
	stringKey("fidelity", func(v string) error {
		_, err := fabric.ParseFidelity(v)
		return err
	}, func(t *TrafficSpec) *string { return &t.Fidelity }),
}

var telemetryKeys = []schemaKey[TelemetrySpec]{
	durationKey("sampleEvery", positive, func(t *TelemetrySpec) *sim.Duration { return &t.SampleEvery }),
	stringKey("sink", nil, func(t *TelemetrySpec) *string { return &t.Sink }),
	intKey("capacity", positive, func(t *TelemetrySpec) *int { return &t.Capacity }),
}

var healthKeys = []schemaKey[HealthSpec]{
	durationKey("checkEvery", positive, func(h *HealthSpec) *sim.Duration { return &h.CheckEvery }),
	floatKey("errorsPerSecond", 1, func(h *HealthSpec) *float64 { return &h.ErrorsPerSecond }),
	floatKey("flapsPerSecond", 1, func(h *HealthSpec) *float64 { return &h.FlapsPerSecond }),
	intKey("degradeTicks", positive, func(h *HealthSpec) *int { return &h.DegradeTicks }),
	intKey("stableTicks", positive, func(h *HealthSpec) *int { return &h.StableTicks }),
	intKey("budget", positive, func(h *HealthSpec) *int { return &h.Budget }),
	durationKey("drainGrace", positive, func(h *HealthSpec) *sim.Duration { return &h.DrainGrace }),
	durationKey("replaceDelay", positive, func(h *HealthSpec) *sim.Duration { return &h.ReplaceDelay }),
	durationKey("retryBackoff", positive, func(h *HealthSpec) *sim.Duration { return &h.RetryBackoff }),
	intKey("maxRetries", positive, func(h *HealthSpec) *int { return &h.MaxRetries }),
}

// DefaultFleet returns the fleet a scenario gets for every fleet: key it
// leaves out: two nodes, the VNI service on, the full VNI pool and the
// paper's 30 s release quarantine.
func DefaultFleet() Fleet {
	return Fleet{
		Nodes:      2,
		VNIService: true,
		VNIPoolMin: 1024,
		VNIPoolMax: 65535,
		Quarantine: 30 * time.Second,
	}
}

// defaultTraffic is a traffic: entry with no keys set.
func defaultTraffic() TrafficSpec { return TrafficSpec{Bytes: 65536, Iterations: 10} }

func intKey[S any](name string, b bound, field func(*S) *int) schemaKey[S] {
	want, least := "must be a non-negative integer", 0
	if b == positive {
		want, least = "must be a positive integer", 1
	}
	return schemaKey[S]{name,
		func(s *S, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil || n < least {
				return fmt.Errorf("%s, got %q", want, v)
			}
			*field(s) = n
			return nil
		},
		func(s *S) string { return strconv.Itoa(*field(s)) }}
}

// vniKey is a positive 32-bit VNI.
func vniKey[S any](name string, field func(*S) *fabric.VNI) schemaKey[S] {
	return schemaKey[S]{name,
		func(s *S, v string) error {
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil || n == 0 {
				return fmt.Errorf("must be a positive integer, got %q", v)
			}
			*field(s) = fabric.VNI(n)
			return nil
		},
		func(s *S) string { return strconv.FormatUint(uint64(*field(s)), 10) }}
}

func boolKey[S any](name string, field func(*S) *bool) schemaKey[S] {
	return schemaKey[S]{name,
		func(s *S, v string) error {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("not a boolean: %q", v)
			}
			*field(s) = b
			return nil
		},
		func(s *S) string { return strconv.FormatBool(*field(s)) }}
}

func durationKey[S any](name string, b bound, field func(*S) *sim.Duration) schemaKey[S] {
	return schemaKey[S]{name,
		func(s *S, v string) error {
			d, err := time.ParseDuration(v)
			switch {
			case b == positive && (err != nil || d <= 0):
				return fmt.Errorf("must be a positive duration, got %q", v)
			case err != nil || d < 0:
				return fmt.Errorf("not a duration: %q", v)
			}
			*field(s) = d
			return nil
		},
		func(s *S) string { return field(s).String() }}
}

// floatKey is a positive number; the field holds it times scale.
func floatKey[S any](name string, scale float64, field func(*S) *float64) schemaKey[S] {
	return schemaKey[S]{name,
		func(s *S, v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return fmt.Errorf("must be a positive number, got %q", v)
			}
			*field(s) = f * scale
			return nil
		},
		func(s *S) string { return strconv.FormatFloat(*field(s)/scale, 'g', -1, 64) }}
}

// stringKey stores the value as is once check, when set, accepts it.
func stringKey[S any](name string, check func(string) error, field func(*S) *string) schemaKey[S] {
	return schemaKey[S]{name,
		func(s *S, v string) error {
			if check != nil {
				if err := check(v); err != nil {
					return err
				}
			}
			*field(s) = v
			return nil
		},
		func(s *S) string { return *field(s) }}
}

// decodeKey sets the field of the section's key called name from the
// scalar c.
func decodeKey[S any](sc *Scenario, section string, keys []schemaKey[S], dst *S, name string, c *value) error {
	for _, k := range keys {
		if k.name == name {
			if err := k.set(dst, c.scalar); err != nil {
				return sc.errAt(c.line, "%s.%s: %v", section, name, err)
			}
			return nil
		}
	}
	return sc.errAt(c.line, "%s: unknown key %q", section, name)
}

// decodeMap decodes the mapping v key by key into dst. tenants, when set,
// decodes the fleet's tenants key, the one section key that is no scalar.
func decodeMap[S any](sc *Scenario, section string, v *value, keys []schemaKey[S], dst *S, tenants func(*value) error) error {
	if v.kind != mapNode {
		return sc.errAt(v.line, "%s: must be a mapping", section)
	}
	for _, name := range v.keys {
		c := v.child[name]
		var err error
		if name == "tenants" && tenants != nil {
			err = tenants(c)
		} else {
			err = decodeKey(sc, section, keys, dst, name, c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// changedKeys returns the keys whose value in s differs from the one in
// def, as name/value pairs in table order: what EmitYAML prints.
func changedKeys[S any](keys []schemaKey[S], s, def *S) [][2]string {
	var out [][2]string
	for _, k := range keys {
		if v := k.get(s); v != k.get(def) {
			out = append(out, [2]string{k.name, v})
		}
	}
	return out
}
