package main

import "testing"

// TestRejectsBadFlags: unusable flag values exit exitBadFlags before any
// cell runs. -scale must be a finite number > 0, and the names of the
// removed parallel dispatch mode and its chaos seam are unknown values.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "0.05", "-dispatch", "parallel"},
		{"-scale", "0.05", "-chaos", "error:worker@1"},
	} {
		if got := run(args); got != exitBadFlags {
			t.Errorf("run(%q) = %d, want %d", args, got, exitBadFlags)
		}
	}
}
