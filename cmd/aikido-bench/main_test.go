package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// mainArg, as the first argument, makes the test binary run main with the
// remaining arguments, so a test can observe main's exit code.
const mainArg = "aikido-bench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags: unusable flag values exit 2 before anything runs —
// in particular before a -json report file is created. -scale must be a
// finite number > 0, -experiment must name an experiment, and the flags
// of the removed batched dispatch modes are unknown. Every listed
// experiment name passes the -experiment check.
func TestRejectsBadFlags(t *testing.T) {
	for _, name := range experimentNames() {
		if err := checkExperiment(name); err != nil {
			t.Errorf("listed experiment %q rejected: %v", name, err)
		}
	}
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "0.05", "-dispatch", "inline"},
		{"-scale", "0.05", "-deferredjson", "deferred.json"},
		{"-scale", "0.05", "-vecjson", "vec.json"},
		{"-scale", "0.05", "-phasejson", "phase.json"},
		{"-scale", "0.25", "-experiment", "nosuch"},
		{"-scale", "0.25", "-experiment", "fig55"},
		{"-scale", "0.25", "-experiment", "deferred"},
		{"-scale", "0.25", "-experiment", "vector"},
		{"-scale", "0.25", "-experiment", "phase"},
	} {
		out := filepath.Join(t.TempDir(), "report.json")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{mainArg, "-json", out}, args...)...)
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("aikido-bench %q: err = %v, want exit status 2", args, err)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("aikido-bench %q: created %s before rejecting its flags", args, out)
		}
	}
}
