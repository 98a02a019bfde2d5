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
const mainArgsEnv = "TSSIM_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"tssim"}, strings.Split(args, "\n")...)
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

// Every flag combination the command cannot run exits 2 with a usage
// message before any machine is built, and a valid one runs to the
// end.
func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		wantCode int
		wantErr  string // substring of stderr
	}{
		{[]string{"-cpus", "0"}, 2, "invalid -cpus"},
		{[]string{"-cpus", "-3"}, 2, "invalid -cpus"},
		{[]string{"-cpus", "65", "-interconnect", "directory"}, 2, "at most 64"},
		{[]string{"-interconnect", "hypercube"}, 2, "unknown -interconnect"},
		{[]string{"-tech", "mesti+bogus"}, 2, "unknown technique"},
		{[]string{"-workload", "nosuch"}, 2, "unknown name"},
		{[]string{"-enumerate"}, 2, "-enumerate requires -litmus-shape"},
		{[]string{"-seeds", "2", "-report", "r.json"}, 2, "use -seeds 1"},
		{[]string{"-litmus-shape", "nosuch"}, 2, "unknown shape"},
		{[]string{"-scale", "0"}, 2, "invalid -scale 0"},
		{[]string{"-scale", "-1"}, 2, "invalid -scale -1"},
		{[]string{"-seeds", "0"}, 2, "invalid -seeds 0"},
		{[]string{"-seeds", "2", "-j", "-3"}, 2, "invalid -j -3"},
		{[]string{"-workload", "ocean", "-cpus", "2"}, 0, ""},
		{[]string{"-workload", "ocean", "-cpus", "1", "-interconnect", "directory"}, 0, ""},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runMain(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.wantErr, stderr)
			}
			if code == 0 && !strings.Contains(stdout, "finished  true") {
				t.Fatalf("valid run did not finish:\n%s", stdout)
			}
		})
	}
}
