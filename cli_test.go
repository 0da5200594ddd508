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

// TestCLIShardsRequireParEngine pins the argument contract every CLI but
// pmlint shares through internal/cli: a positive shard count without
// --engine par is a usage error (exit 2), never silently ignored, while
// the same count under --engine par still runs; a negative count is
// rejected (exit 1) by the library under either engine, and so are
// negative sizes — pmfault's --messages, --payload and --window-us,
// pmtrace's --messages, pmstat's --horizon-us and --window-us — where
// zero means the default — and pmtopo's -bytes, as are pmtopo's
// out-of-range -src and -dst and a -net other than 0 or 1.
// An unknown --engine, --topo, pmsim -machine, -version or -type value is
// rejected (exit 1) with the command's name in front of the message. A
// positional argument, which no CLI but pmlint takes, is a usage error
// (exit 2), even after valid flags, and so is a flag set explicitly in a
// mode that ignores it. A rejected command prints nothing to stdout, and
// a usage error prints the usage text.
func TestCLIShardsRequireParEngine(t *testing.T) {
	cases := []struct {
		cmd      string
		args     []string
		exit     int
		inStderr string
	}{
		{"pmfault", []string{"--shards", "4"}, 2, "pmfault: --shards 4 requires --engine par"},
		{"pmfault", []string{"--engine", "seq", "--shards", "1"}, 2, "pmfault: --shards 1 requires --engine par"},
		{"pmfault", []string{"--campaign", "heat-linkcut", "--engine", "par", "--shards", "1"}, 0, ""},
		{"pmstat", []string{"--shards", "4"}, 2, "pmstat: --shards 4 requires --engine par"},
		{"pmstat", []string{"--engine", "seq", "--shards", "2"}, 2, "pmstat: --shards 2 requires --engine par"},
		{"pmstat", []string{"--engine", "par", "--shards", "2", "--topo", "system256", "--horizon-us", "5"}, 0, ""},
		{"pmstat", []string{"--format", "report", "--shards", "4"}, 2, "pmstat: --shards 4 requires --engine par"},
		{"pmstat", []string{"--format", "report", "--engine", "seq", "--shards", "2"}, 2, "pmstat: --shards 2 requires --engine par"},
		{"pmstat", []string{"--format", "report", "--engine", "par", "--shards", "2", "--topo", "system256", "--horizon-us", "5"}, 0, ""},
		{"pmfault", []string{"--campaign", "heat-linkcut", "--engine", "par", "--shards", "-1"}, 1, "fault: shard count -1 is negative"},
		{"pmstat", []string{"--engine", "par", "--shards", "-2", "--horizon-us", "5"}, 1, "traffic: shard count -2 is negative"},
		{"pmstat", []string{"--format", "report", "--shards", "-1", "--horizon-us", "5"}, 1, "traffic: shard count -1 is negative"},
		{"pmbench", []string{"--engine", "fast", "--exp", "table1"}, 1, `pmbench: psim: unknown engine "fast"`},
		{"pmfault", []string{"--messages", "-3"}, 1, "pmfault: fault: message count -3 is negative"},
		{"pmfault", []string{"--payload", "-1"}, 1, "pmfault: fault: payload size -1 is negative"},
		{"pmfault", []string{"--window-us", "-5"}, 1, "pmfault: fault: window -5us is negative"},
		{"pmfault", []string{"--traffic", "--window-us", "-5"}, 1, "pmfault: fault: window -5us is negative"},
		{"pmstat", []string{"--horizon-us", "-5"}, 1, "pmstat: traffic: horizon -5us is negative"},
		{"pmstat", []string{"--horizon-us", "5", "--window-us", "-1"}, 1, "pmstat: traffic: telemetry window -1us is negative"},
		{"pmstat", []string{"--format", "report", "--horizon-us", "-5"}, 1, "pmstat: traffic: horizon -5us is negative"},
		{"pmtrace", []string{"--run", "pingpong", "--messages", "-3"}, 1, "pmtrace: round count -3 is negative"},
		{"pmtrace", []string{"--campaign", "link-cut", "--messages", "-3"}, 1, "pmtrace: fault: message count -3 is negative"},
		{"pmfault", []string{"--topo", "mesh"}, 1, `pmfault: unknown topology "mesh"`},
		{"pmstat", []string{"--topo", "mesh"}, 1, `pmstat: unknown topology "mesh"`},
		{"pmstat", []string{"--format", "report", "--topo", "mesh"}, 1, `pmstat: unknown topology "mesh"`},
		{"pmtrace", []string{"--topo", "mesh"}, 1, `pmtrace: unknown topology "mesh"`},
		{"pmtopo", []string{"--topo", "mesh"}, 1, `pmtopo: unknown topology "mesh"`},
		{"pmtopo", []string{"-bytes", "-5"}, 1, "pmtopo: -bytes -5 is negative"},
		{"pmtopo", []string{"-src", "999"}, 1, "pmtopo: -src 999 is out of range: cluster8 has nodes 0 to 7"},
		{"pmtopo", []string{"-topo", "system256", "-dst", "-1"}, 1, "pmtopo: -dst -1 is out of range: system256 has nodes 0 to 127"},
		{"pmtopo", []string{"-net", "2"}, 1, "pmtopo: -net 2 is not a network plane: 0 (A) or 1 (B)"},
		{"pmtopo", []string{"-topo", "system256", "-src", "127", "-dst", "0", "-net", "1"}, 0, ""},
		{"pmbench", []string{"fig9"}, 2, `pmbench: unexpected argument "fig9"`},
		{"pmbench", []string{"-exp", "fig9", "extra"}, 2, `pmbench: unexpected argument "extra"`},
		{"pmfault", []string{"--campaign", "link-cut", "extra"}, 2, `pmfault: unexpected argument "extra"`},
		{"pmsim", []string{"-machine", "pm", "matmult"}, 2, `pmsim: unexpected argument "matmult"`},
		{"pmstat", []string{"--horizon-us", "5", "extra"}, 2, `pmstat: unexpected argument "extra"`},
		{"pmtopo", []string{"-topo", "system256", "extra"}, 2, `pmtopo: unexpected argument "extra"`},
		{"pmtrace", []string{"pingpong"}, 2, `pmtrace: unexpected argument "pingpong"`},
		{"pmstat", []string{"--list", "extra"}, 2, `pmstat: unexpected argument "extra"`},
		// Flags set explicitly in a mode that ignores them.
		{"pmfault", []string{"--mix", "bursty"}, 2, "pmfault: --mix has no effect without --traffic"},
		{"pmfault", []string{"--traffic", "--campaign", "link-cut"}, 2, "pmfault: --campaign has no effect with --traffic"},
		{"pmfault", []string{"--traffic", "--messages", "10"}, 2, "pmfault: --messages has no effect with --traffic"},
		{"pmfault", []string{"--traffic", "--payload", "64"}, 2, "pmfault: --payload has no effect with --traffic"},
		{"pmfault", []string{"--list", "--seed", "2"}, 2, "pmfault: --list takes no other flag"},
		{"pmfault", []string{"--campaign", "heat-linkcut", "--messages", "5"}, 2, "pmfault: --messages has no effect with --campaign heat-linkcut"},
		{"pmfault", []string{"--campaign", "allreduce-linkcut", "--payload", "8"}, 2, "pmfault: --payload has no effect with --campaign allreduce-linkcut"},
		{"pmfault", []string{"--campaign", "fib-linkcut", "--window-us", "7"}, 2, "pmfault: --window-us has no effect with --campaign fib-linkcut"},
		{"pmfault", []string{"--campaign", "link-cut", "--engine", "par", "--shards", "4"}, 2, "pmfault: --shards has no effect with --campaign link-cut"},
		{"pmstat", []string{"--faults", "4"}, 2, "pmstat: --faults has no effect without --campaign"},
		{"pmstat", []string{"--format", "report", "--window-us", "5"}, 2, "pmstat: --window-us has no effect with --format report"},
		{"pmstat", []string{"--format", "csv", "--metrics"}, 2, "pmstat: --metrics has no effect with --format csv"},
		{"pmstat", []string{"--list", "--mix", "bursty"}, 2, "pmstat: --list takes no other flag"},
		{"pmstat", []string{"--format", "bogus"}, 1, `pmstat: unknown format "bogus"`},
		{"pmtrace", []string{"--run", "fib", "--campaign", "link-cut"}, 2, "pmtrace: --run has no effect with --campaign"},
		{"pmtrace", []string{"--engine", "par"}, 2, "pmtrace: --engine has no effect without --campaign"},
		{"pmtrace", []string{"--seed2", "3"}, 2, "pmtrace: --seed2 has no effect without --format diff"},
		{"pmtrace", []string{"--format", "profile", "--window-us", "5"}, 2, "pmtrace: --window-us has no effect without --format utilization"},
		{"pmtrace", []string{"--format", "critpath", "--top", "3"}, 2, "pmtrace: --top has no effect without --format profile"},
		{"pmtrace", []string{"--run", "fib", "--messages", "3"}, 2, "pmtrace: --messages has no effect with --run fib"},
		{"pmtrace", []string{"--run", "dispatch", "--messages", "3"}, 2, "pmtrace: --messages has no effect with --run dispatch"},
		{"pmtrace", []string{"--run", "dispatch", "--topo", "system256"}, 2, "pmtrace: --topo has no effect with --run dispatch"},
		{"pmsim", []string{"-bench", "hint", "-version", "naive"}, 2, "pmsim: -version has no effect with -bench hint"},
		{"pmsim", []string{"-bench", "comm", "-cpus", "2"}, 2, "pmsim: -cpus has no effect with -bench comm"},
		{"pmsim", []string{"-type", "int"}, 2, "pmsim: -type has no effect with -bench matmult"},
		{"pmsim", []string{"-bench", "comm", "-intervals", "10"}, 2, "pmsim: -intervals has no effect with -bench comm"},
		{"pmsim", []string{"-bench", "hint", "-n", "5"}, 2, "pmsim: -n has no effect with -bench hint"},
		{"pmsim", []string{"-n", "9", "-version", "bogus"}, 1, `pmsim: unknown matmult version "bogus" (want naive or transposed)`},
		{"pmsim", []string{"-bench", "hint", "-type", "bogus"}, 1, `pmsim: unknown hint type "bogus" (want double or int)`},
		{"pmsim", []string{"-machine", "vax"}, 1, `pmsim: unknown machine "vax"`},
		{"pmsim", []string{"-machine", "sun", "-bench", "comm"}, 1, "pmsim: comm benchmark measures the PowerMANNA pair"},
		{"pmsim", []string{"-bench", "fft"}, 1, `pmsim: unknown benchmark "fft"`},
		{"pmtopo", []string{"-validate", "-src", "1"}, 2, "pmtopo: -src has no effect with -validate"},
		{"pmtopo", []string{"-validate", "-dst", "2"}, 2, "pmtopo: -dst has no effect with -validate"},
		{"pmtopo", []string{"-validate", "-net", "1"}, 2, "pmtopo: -net has no effect with -validate"},
		{"pmtopo", []string{"-validate", "-bytes", "8"}, 2, "pmtopo: -bytes has no effect with -validate"},
		{"pmbench", []string{"-list", "-full"}, 2, "pmbench: -list takes no other flag"},
		{"pmbench", []string{"-engine", "par", "-list"}, 2, "pmbench: -list takes no other flag"},
		{"pmbench", []string{"-list=false", "-exp", "table1"}, 0, ""},
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
