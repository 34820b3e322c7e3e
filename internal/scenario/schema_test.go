package scenario

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// schemaCases holds, per section key, an in-range value that differs from
// the section default, and an out-of-range value with the error Parse
// gives for it (bad is "" for a key with no bound). The error texts are
// the ones the per-section decoders gave before the schema table replaced
// them. traffic.fidelity's "packet" is the value EmitYAML used to drop,
// so that it re-parsed as the empty default.
var schemaCases = map[string]struct{ good, bad, err string }{
	"fleet.nodes":       {"3", "0", `fleet.nodes: must be a positive integer, got "0"`},
	"fleet.vniService":  {"false", "maybe", `fleet.vniService: not a boolean: "maybe"`},
	"fleet.vniPoolMin":  {"2000", "0", `fleet.vniPoolMin: must be a positive integer, got "0"`},
	"fleet.vniPoolMax":  {"4000", "-1", `fleet.vniPoolMax: must be a positive integer, got "-1"`},
	"fleet.quarantine":  {"5s", "-1s", `fleet.quarantine: not a duration: "-1s"`},
	"fleet.podsPerNode": {"2", "-1", `fleet.podsPerNode: must be a non-negative integer, got "-1"`},

	"topology.groups":              {"2", "0", `topology.groups: must be a positive integer, got "0"`},
	"topology.switchesPerGroup":    {"4", "x", `topology.switchesPerGroup: must be a positive integer, got "x"`},
	"topology.nodesPerSwitch":      {"1", "0", `topology.nodesPerSwitch: must be a positive integer, got "0"`},
	"topology.globalLinksPerPair":  {"2", "0", `topology.globalLinksPerPair: must be a positive integer, got "0"`},
	"topology.globalBandwidthGbps": {"12.5", "0", `topology.globalBandwidthGbps: must be a positive number, got "0"`},
	"topology.globalLatency":       {"1.5ms", "soon", `topology.globalLatency: not a duration: "soon"`},

	"traffic.name":       {"t2", "", ""},
	"traffic.pattern":    {"alltoall", "", ""},
	"traffic.bytes":      {"0", "-1", `traffic.bytes: must be a non-negative integer, got "-1"`},
	"traffic.iterations": {"3", "0", `traffic.iterations: must be a positive integer, got "0"`},
	"traffic.compute":    {"1ms", "-1ms", `traffic.compute: not a duration: "-1ms"`},
	"traffic.fidelity": {"packet", "warp",
		`traffic.fidelity: fabric: unknown fidelity "warp" (want packet, flow or hybrid)`},

	"telemetry.sampleEvery": {"5ms", "0s", `telemetry.sampleEvery: must be a positive duration, got "0s"`},
	"telemetry.sink":        {"out.jsonl", "", ""},
	"telemetry.capacity":    {"64", "0", `telemetry.capacity: must be a positive integer, got "0"`},

	"health.checkEvery":      {"50ms", "0s", `health.checkEvery: must be a positive duration, got "0s"`},
	"health.errorsPerSecond": {"2.5", "-1", `health.errorsPerSecond: must be a positive number, got "-1"`},
	"health.flapsPerSecond":  {"7", "0", `health.flapsPerSecond: must be a positive number, got "0"`},
	"health.degradeTicks":    {"3", "0", `health.degradeTicks: must be a positive integer, got "0"`},
	"health.stableTicks":     {"4", "x", `health.stableTicks: must be a positive integer, got "x"`},
	"health.budget":          {"2", "0", `health.budget: must be a positive integer, got "0"`},
	"health.drainGrace":      {"200ms", "-1s", `health.drainGrace: must be a positive duration, got "-1s"`},
	"health.replaceDelay":    {"1s", "0s", `health.replaceDelay: must be a positive duration, got "0s"`},
	"health.retryBackoff":    {"30ms", "later", `health.retryBackoff: must be a positive duration, got "later"`},
	"health.maxRetries":      {"5", "0", `health.maxRetries: must be a positive integer, got "0"`},
}

func keyNames[S any](keys []schemaKey[S]) []string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.name
	}
	return names
}

// schemaYAML renders a scenario with every section present and the one
// section key set to val. The base values keep the spec valid for every
// case (two switches per group admit globalLinksPerPair: 2).
func schemaYAML(section, key, val string) string {
	order := []string{"topology", "fleet", "traffic", "telemetry", "health"}
	sections := map[string][][2]string{
		"topology":  {{"switchesPerGroup", "2"}},
		"traffic":   {{"name", "t"}, {"pattern", "allreduce-ring"}},
		"telemetry": {{"sampleEvery", "1ms"}},
		"health":    {{"checkEvery", "10ms"}},
	}
	kvs := sections[section]
	i := 0
	for i < len(kvs) && kvs[i][0] != key {
		i++
	}
	if i == len(kvs) {
		kvs = append(kvs, [2]string{})
	}
	kvs[i] = [2]string{key, val}
	sections[section] = kvs

	var b strings.Builder
	b.WriteString("name: schema\n")
	for _, name := range order {
		if len(sections[name]) == 0 {
			continue
		}
		b.WriteString(name + ":\n")
		for j, e := range sections[name] {
			indent := "  "
			if name == "traffic" {
				indent = "    "
				if j == 0 {
					indent = "  - "
				}
			}
			b.WriteString(indent + e[0] + ": " + e[1] + "\n")
		}
	}
	b.WriteString("events:\n  - at: 0s\n    action: start_fleet\n")
	return b.String()
}

// TestSchemaKeys walks the schema tables: every key's in-range,
// non-default value survives Parse -> EmitYAML -> Parse deeply equal,
// every bounded key's out-of-range value gives its error text, and every
// section rejects a key it does not hold.
func TestSchemaKeys(t *testing.T) {
	var all []string
	for _, sec := range []struct {
		name string
		keys []string
	}{
		{"fleet", keyNames(fleetKeys)},
		{"topology", keyNames(topologyKeys)},
		{"traffic", keyNames(trafficKeys)},
		{"telemetry", keyNames(telemetryKeys)},
		{"health", keyNames(healthKeys)},
	} {
		want := sec.name + `: unknown key "bogus"`
		if _, err := Parse(strings.NewReader(schemaYAML(sec.name, "bogus", "1"))); err == nil || !strings.HasSuffix(err.Error(), ": "+want) {
			t.Errorf("%s: unknown key gave error %v, want %q", sec.name, err, want)
		}
		for _, key := range sec.keys {
			id := sec.name + "." + key
			all = append(all, id)
			c, ok := schemaCases[id]
			if !ok {
				t.Errorf("%s: no schema case", id)
				continue
			}
			src := schemaYAML(sec.name, key, c.good)
			orig, err := Parse(strings.NewReader(src))
			if err != nil {
				t.Errorf("%s: parse %q: %v\n%s", id, c.good, err, src)
				continue
			}
			emitted := EmitYAML(orig)
			if !strings.Contains(string(emitted), key+": "+c.good+"\n") {
				t.Errorf("%s: non-default value %q not emitted:\n%s", id, c.good, emitted)
			}
			back, err := Parse(bytes.NewReader(emitted))
			if err != nil {
				t.Errorf("%s: re-parse: %v\n%s", id, err, emitted)
				continue
			}
			stripPositions(orig)
			stripPositions(back)
			if !reflect.DeepEqual(orig, back) {
				t.Errorf("%s: round trip diverged\noriginal: %+v\nreparsed: %+v\nemitted:\n%s", id, orig, back, emitted)
			}
			if c.bad == "" {
				continue
			}
			_, err = Parse(strings.NewReader(schemaYAML(sec.name, key, c.bad)))
			if err == nil || !strings.HasSuffix(err.Error(), ": "+c.err) {
				t.Errorf("%s: value %q gave error %v, want %q", id, c.bad, err, c.err)
			}
		}
	}
	if len(all) != len(schemaCases) {
		sort.Strings(all)
		t.Errorf("schema cases for keys the tables do not hold; tables hold %v", all)
	}
}
