package powermanna_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliBin holds the CLI binaries the root tests build, once per test
// binary run (the tests are serial); TestMain removes it.
var cliBin struct {
	dir   string
	built map[string]string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cliBin.dir != "" {
		os.RemoveAll(cliBin.dir)
	}
	os.Exit(code)
}

// buildCLI builds ./cmd/<name> (once per run) and returns its path.
func buildCLI(t *testing.T, name string) string {
	t.Helper()
	if exe, ok := cliBin.built[name]; ok {
		return exe
	}
	if cliBin.dir == "" {
		dir, err := os.MkdirTemp("", "powermanna-cli-")
		if err != nil {
			t.Fatal(err)
		}
		cliBin.dir, cliBin.built = dir, map[string]string{}
	}
	exe := filepath.Join(cliBin.dir, name)
	if out, err := exec.Command("go", "build", "-o", exe, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	cliBin.built[name] = exe
	return exe
}

// TestCLIShardsRequireParEngine pins the argument contract of the
// sharding CLIs: a positive shard count without --engine par is a usage
// error (exit 2), never silently ignored, while the same count under
// --engine par still runs; a negative count is rejected (exit 1) by the
// library under either engine, and so are negative sizes — pmfault's
// --messages, --payload and --window-us, pmtrace's --messages, pmstat's
// and pmtraffic's --horizon-us and pmstat's --window-us — where zero
// means the default — and pmtopo's -bytes, as are pmtopo's out-of-range
// -src and -dst and a -net other than 0 or 1.
// An unknown --engine or --topo value is rejected (exit 1) with the
// command's name in front of the message (pmtopo prints the bare
// message). A rejected command prints nothing to stdout.
func TestCLIShardsRequireParEngine(t *testing.T) {
	cases := []struct {
		cmd      string
		args     []string
		exit     int
		inStderr string
	}{
		{"pmfault", []string{"--shards", "4"}, 2, "pmfault: --shards 4 requires --engine par"},
		{"pmfault", []string{"--engine", "seq", "--shards", "1"}, 2, "pmfault: --shards 1 requires --engine par"},
		{"pmfault", []string{"--engine", "par", "--shards", "1", "--messages", "10"}, 0, ""},
		{"pmstat", []string{"--shards", "4"}, 2, "pmstat: --shards 4 requires --engine par"},
		{"pmstat", []string{"--engine", "seq", "--shards", "2"}, 2, "pmstat: --shards 2 requires --engine par"},
		{"pmstat", []string{"--engine", "par", "--shards", "2", "--topo", "system256", "--horizon-us", "5"}, 0, ""},
		{"pmtraffic", []string{"--shards", "4"}, 2, "pmtraffic: --shards 4 requires --engine par"},
		{"pmtraffic", []string{"--engine", "seq", "--shards", "2"}, 2, "pmtraffic: --shards 2 requires --engine par"},
		{"pmtraffic", []string{"--engine", "par", "--shards", "2", "--topo", "system256", "--horizon-us", "5"}, 0, ""},
		{"pmfault", []string{"--engine", "par", "--shards", "-1", "--messages", "10"}, 1, "fault: shard count -1 is negative"},
		{"pmstat", []string{"--engine", "par", "--shards", "-2", "--horizon-us", "5"}, 1, "traffic: shard count -2 is negative"},
		{"pmtraffic", []string{"--shards", "-1", "--horizon-us", "5"}, 1, "traffic: shard count -1 is negative"},
		{"pmbench", []string{"--engine", "fast", "--exp", "table1"}, 1, `pmbench: psim: unknown engine "fast"`},
		{"pmfault", []string{"--messages", "-3"}, 1, "pmfault: fault: message count -3 is negative"},
		{"pmfault", []string{"--payload", "-1"}, 1, "pmfault: fault: payload size -1 is negative"},
		{"pmfault", []string{"--window-us", "-5"}, 1, "pmfault: fault: window -5us is negative"},
		{"pmfault", []string{"--traffic", "--window-us", "-5"}, 1, "pmfault: fault: window -5us is negative"},
		{"pmstat", []string{"--horizon-us", "-5"}, 1, "pmstat: traffic: horizon -5us is negative"},
		{"pmstat", []string{"--horizon-us", "5", "--window-us", "-1"}, 1, "pmstat: traffic: telemetry window -1us is negative"},
		{"pmtraffic", []string{"--horizon-us", "-5"}, 1, "pmtraffic: traffic: horizon -5us is negative"},
		{"pmtrace", []string{"--run", "pingpong", "--messages", "-3"}, 1, "pmtrace: round count -3 is negative"},
		{"pmtrace", []string{"--campaign", "link-cut", "--messages", "-3"}, 1, "pmtrace: fault: message count -3 is negative"},
		{"pmfault", []string{"--topo", "mesh"}, 1, `pmfault: unknown topology "mesh"`},
		{"pmstat", []string{"--topo", "mesh"}, 1, `pmstat: unknown topology "mesh"`},
		{"pmtraffic", []string{"--topo", "mesh"}, 1, `pmtraffic: unknown topology "mesh"`},
		{"pmtrace", []string{"--topo", "mesh"}, 1, `pmtrace: unknown topology "mesh"`},
		{"pmtopo", []string{"--topo", "mesh"}, 1, `unknown topology "mesh"`},
		{"pmtopo", []string{"-bytes", "-5"}, 1, "pmtopo: -bytes -5 is negative"},
		{"pmtopo", []string{"-src", "999"}, 1, "pmtopo: -src 999 is out of range: cluster8 has nodes 0 to 7"},
		{"pmtopo", []string{"-topo", "system256", "-dst", "-1"}, 1, "pmtopo: -dst -1 is out of range: system256 has nodes 0 to 127"},
		{"pmtopo", []string{"-net", "2"}, 1, "pmtopo: -net 2 is not a network plane: 0 (A) or 1 (B)"},
		{"pmtopo", []string{"-topo", "system256", "-src", "127", "-dst", "0", "-net", "1"}, 0, ""},
	}
	for _, c := range cases {
		exe := buildCLI(t, c.cmd)
		var stdout, stderr bytes.Buffer
		run := exec.Command(exe, c.args...)
		run.Stdout, run.Stderr = &stdout, &stderr
		err := run.Run()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v", c.cmd, c.args, err)
		}
		if exit != c.exit {
			t.Errorf("%s %v: exit %d, want %d\n%s", c.cmd, c.args, exit, c.exit, stderr.String())
		}
		if c.inStderr != "" && !strings.Contains(stderr.String(), c.inStderr) {
			t.Errorf("%s %v: stderr lacks %q:\n%s", c.cmd, c.args, c.inStderr, stderr.String())
		}
		if c.exit != 0 && stdout.Len() != 0 {
			t.Errorf("%s %v: rejected but printed to stdout:\n%s", c.cmd, c.args, stdout.String())
		}
		if c.exit == 2 && !strings.Contains(stderr.String(), "Usage of") {
			t.Errorf("%s %v: usage error without usage text:\n%s", c.cmd, c.args, stderr.String())
		}
	}
}

// TestPmbenchRejectsUnknownExperiments pins pmbench's -exp validation:
// every ID, empty entries included, is checked before any experiment
// runs, so a bad list exits 2 with the usage text and the valid IDs and
// prints nothing to stdout.
func TestPmbenchRejectsUnknownExperiments(t *testing.T) {
	exe := buildCLI(t, "pmbench")
	cases := []struct {
		exp, bad string
	}{
		{"table1,fig99", `"fig99"`},
		{"fig99,table1", `"fig99"`},
		{"table1,,table1", `""`},
		{"table1,", `""`},
		{"", `""`},
		{"all,table1", `"all"`},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		run := exec.Command(exe, "-exp", c.exp)
		run.Stdout, run.Stderr = &stdout, &stderr
		err := run.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("pmbench -exp %q: %v, want exit 2\n%s", c.exp, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("pmbench -exp %q printed to stdout:\n%s", c.exp, stdout.String())
		}
		for _, want := range []string{"unknown experiment " + c.bad, "table1", "Usage of"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("pmbench -exp %q: stderr lacks %q:\n%s", c.exp, want, stderr.String())
			}
		}
	}
	// A valid list with spaces still runs.
	out, err := exec.Command(exe, "-exp", "table1, table1").Output()
	if err != nil || strings.Count(string(out), "### table1 ") != 2 {
		t.Errorf("pmbench -exp \"table1, table1\": %v\n%s", err, out)
	}
}
