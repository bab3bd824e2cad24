package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.id != strings.ToUpper(e.id) {
			t.Errorf("id %q is not upper case: the selector upper-cases what it is given", e.id)
		}
		if seen[e.id] {
			t.Errorf("id %q registered twice", e.id)
		}
		seen[e.id] = true
	}
}

func TestSelectExperiments(t *testing.T) {
	selected := func(want map[string]bool) string {
		var ids []string
		for _, e := range experiments {
			if want[e.id] {
				ids = append(ids, e.id)
			}
		}
		return strings.Join(ids, ",")
	}
	var all []string
	for _, e := range experiments {
		all = append(all, e.id)
	}
	for _, tc := range []struct{ sel, want string }{
		{"all", strings.Join(all, ",")},
		{"ALL", strings.Join(all, ",")},
		{"E22", "E22"},
		{"e22", "E22"},
		{"e4, E5,e26", "E4,E5,E26"},
		{"E10,E10", "E10"},
	} {
		got, err := selectExperiments(tc.sel)
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", tc.sel, err)
		} else if s := selected(got); s != tc.want {
			t.Errorf("selectExperiments(%q) = %s, want %s", tc.sel, s, tc.want)
		}
	}
	for _, sel := range []string{"E99", "E4,E99", "", "E22,", "E17", "E2 2"} {
		_, err := selectExperiments(sel)
		if err == nil {
			t.Errorf("selectExperiments(%q) accepted an unknown id", sel)
		} else if !strings.Contains(err.Error(), "E22") {
			t.Errorf("selectExperiments(%q) error does not list the valid ids: %v", sel, err)
		}
	}
}

// TestRegistryMatchesExperimentsIndex keeps the program and the document
// from drifting: every registered id has a row in EXPERIMENTS.md's Index.
func TestRegistryMatchesExperimentsIndex(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## Index")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Index section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) \|`).FindAllStringSubmatch(index, -1) {
		rows[m[1]] = true
	}
	for _, e := range experiments {
		if !rows[e.id] {
			t.Errorf("experiment %s has no row in EXPERIMENTS.md's Index", e.id)
		}
	}
}
