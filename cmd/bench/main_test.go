package main

import (
	"os"
	"strings"
	"testing"
)

// readmeCommands returns the arguments of every `go run ./cmd/bench …`
// line in the code fences of README's "Reproducing the paper's
// evaluation" section, comments stripped.
func readmeCommands(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Reproducing the paper's evaluation\n")
	if !ok {
		t.Fatal("README has no \"Reproducing the paper's evaluation\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	const prefix = "go run ./cmd/bench"
	var cmds [][]string
	fenced := false
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced || !strings.HasPrefix(line, prefix) {
			continue
		}
		line, _, _ = strings.Cut(line, "#")
		cmds = append(cmds, strings.Fields(strings.TrimPrefix(line, prefix)))
	}
	return cmds
}

// TestReadmeCommandsParse: every command line the README tells a reader
// to run must be accepted as written — known flags, a known -exp, a
// known -scale — and between them the lines show every experiment.
func TestReadmeCommandsParse(t *testing.T) {
	cmds := readmeCommands(t)
	if len(cmds) == 0 {
		t.Fatal("README's reproduction section has no `go run ./cmd/bench` line")
	}
	shown := map[string]bool{}
	for _, args := range cmds {
		cfg, err := parseArgs(args)
		if err != nil {
			t.Errorf("README says `go run ./cmd/bench %s`: %v", strings.Join(args, " "), err)
			continue
		}
		shown[cfg.exp] = true
	}
	for _, e := range experiments {
		if !shown[e.name] {
			t.Errorf("README's reproduction section never runs -exp %s", e.name)
		}
	}
}

// TestRetiredNamesRejected: the per-feature experiments and flags this
// command used to carry, and a typo, are errors that name what is valid
// — never a silent run of something else.
func TestRetiredNamesRejected(t *testing.T) {
	for _, name := range []string{
		"parallel", "concurrent", "cow", "resultcache", "fairness",
		"subsume", "prune", "spill", "strategy", "cwo",
	} {
		_, err := parseArgs([]string{"-scale", "tiny", "-exp", name})
		if err == nil {
			t.Errorf("-exp %s accepted", name)
			continue
		}
		for _, e := range experiments {
			if !strings.Contains(err.Error(), e.name) {
				t.Errorf("-exp %s: error %q does not list %s", name, err, e.name)
			}
		}
	}
	if len(experiments) != 6 {
		t.Errorf("%d experiments registered, want the paper's 6", len(experiments))
	}
	for _, flag := range []string{"-parallelism", "-clients", "-sessions", "-quota", "-zoom", "-json"} {
		if _, err := parseArgs([]string{flag, "1"}); err == nil {
			t.Errorf("retired flag %s accepted", flag)
		}
	}
	if _, err := parseArgs([]string{"-scale", "bogus"}); err == nil || !strings.Contains(err.Error(), "tiny, small, medium") {
		t.Errorf("-scale bogus: error = %v, want one listing tiny, small, medium", err)
	}
}
