package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv carries the command line for a re-executed test binary
// that runs main instead of the tests (newline-separated arguments).
const mainArgsEnv = "EXPERIMENTS_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns
// its exit code, standard output and standard error.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// Every flag value the command cannot honour exits 2 with a usage
// message before any simulation runs, instead of falling back to a
// default; a valid artifact request runs.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		wantCode int
		wantErr  string // substring of stderr
		wantOut  string // substring of stdout
	}{
		{[]string{"-table1", "-scale", "0"}, 2, "invalid -scale 0", ""},
		{[]string{"-table1", "-scale", "-1"}, 2, "invalid -scale -1", ""},
		{[]string{"-table1", "-seeds", "0"}, 2, "invalid -seeds 0", ""},
		{[]string{"-table1", "-j", "-3"}, 2, "invalid -j -3", ""},
		{[]string{"-table1", "-cpus", "0"}, 2, "invalid -cpus", ""},
		{[]string{"-table1", "-interconnect", "hypercube"}, 2, "unknown -interconnect", ""},
		{[]string{"-report", "r.json"}, 2, "-report requires -dump", ""},
		{[]string{}, 2, "Usage", ""},
		{[]string{"-table1", "-scale", "1", "-seeds", "1", "-j", "0"}, 0, "", "Table 1"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runMain(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.wantErr, stderr)
			}
			if !strings.Contains(stdout, tc.wantOut) {
				t.Fatalf("stdout lacks %q:\n%s", tc.wantOut, stdout)
			}
		})
	}
}
