package scenario

import (
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// docTableNames returns the first-column names (`name`) of the markdown
// table under the "## <section>" heading of doc.
func docTableNames(t *testing.T, doc, section string) []string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n## "+section+"\n")
	if !ok {
		t.Fatalf("docs/scenarios.md has no %q section", section)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	var names []string
	for _, line := range strings.Split(body, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if strings.HasPrefix(first, "`") && strings.HasSuffix(first, "`") {
			names = append(names, strings.Trim(first, "`"))
		}
	}
	sort.Strings(names)
	return names
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestDocsListRegistry keeps the docs/scenarios.md catalogue and the
// registry in step: the Events table lists exactly the registered
// actions, the Assertions table exactly the registered assertion types.
func TestDocsListRegistry(t *testing.T) {
	data, err := os.ReadFile("../../docs/scenarios.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, tc := range []struct {
		section string
		want    []string
	}{
		{"Events", sortedNames(actions)},
		{"Assertions", sortedNames(assertions)},
	} {
		got := docTableNames(t, doc, tc.section)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s table lists %v\nregistry has %v", tc.section, got, tc.want)
		}
	}
}

// TestValidateEventAllocatesNothing pins the registry's cost: the generic
// descriptor checks (section, target, params, typed values, tenant)
// allocate nothing, so validating a fuzz campaign's specs stays as cheap
// as the tables it replaced. Only list-valued params (a fail_link pair, a
// partition's node list) are split into slices, as they always were.
func TestValidateEventAllocatesNothing(t *testing.T) {
	sc := mustParse(t, `
name: allocs
fleet:
  nodes: 4
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 1s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 1s
  - at: 2s
    action: degrade_apiserver
    latency_factor: 2
  - at: 3s
    action: cordon
    target: node3
`)
	for i := range sc.Events {
		ev := &sc.Events[i]
		if n := testing.AllocsPerRun(20, func() { _ = sc.ValidateEvent(ev) }); n != 0 {
			t.Errorf("ValidateEvent(%s) allocates %.0f times", ev.Action, n)
		}
	}
}
