package main

import "testing"

// TestRejectsBadFlags: unusable flag values exit exitBadFlags before any
// cell runs. -scale must be a finite number > 0; the chaos seams of the
// removed parallel, deferred and phased dispatch modes are unknown values,
// and -dispatch and the batched-mode report flags are unknown flags.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "0.05", "-dispatch", "inline"},
		{"-scale", "0.05", "-deferredjson", "deferred.json"},
		{"-scale", "0.05", "-vecjson", "vec.json"},
		{"-scale", "0.05", "-phasejson", "phase.json"},
		{"-scale", "0.05", "-chaos", "error:worker@1"},
		{"-scale", "0.05", "-chaos", "error:drain@1"},
		{"-scale", "0.05", "-chaos", "panic:reconcile@1"},
	} {
		if got := run(args); got != exitBadFlags {
			t.Errorf("run(%q) = %d, want %d", args, got, exitBadFlags)
		}
	}
}
