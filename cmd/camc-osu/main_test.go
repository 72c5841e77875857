package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the CLI through run: a valid ladder prints one row per
// power of two, and every unbounded or unknown flag is rejected before
// anything is simulated, with an error naming the flag.
func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		rows    int    // table rows expected on success
		wantErr string // substring of the error; "" = success
	}{
		{"reduce ladder", []string{"-coll", "reduce", "-procs", "4", "-max", "64K"}, 7, ""},
		{"plain byte sizes", []string{"-coll", "bcast", "-procs", "4", "-min", "512", "-max", "2048"}, 3, ""},
		{"zero min never doubles", []string{"-coll", "bcast", "-min", "0", "-max", "1024"}, 0, "empty size ladder"},
		{"inverted range", []string{"-coll", "bcast", "-min", "4K", "-max", "1K"}, 0, "empty size ladder"},
		{"bad size", []string{"-coll", "bcast", "-max", "lots"}, 0, "empty size ladder"},
		{"unknown coll", []string{"-coll", "bogus"}, 0, `unknown -coll "bogus"`},
		{"missing coll", nil, 0, `unknown -coll ""`},
		{"unknown coll listing", []string{"-coll", "bogus", "-list-algos"}, 0, `unknown -coll "bogus"`},
		{"negative iters", []string{"-coll", "bcast", "-iters", "-1"}, 0, "-iters -1"},
		{"zero iters", []string{"-coll", "bcast", "-iters", "0"}, 0, "-iters 0"},
		{"negative procs", []string{"-coll", "bcast", "-procs", "-3"}, 0, "negative -procs"},
		{"root out of range", []string{"-coll", "gather", "-procs", "4", "-root", "4"}, 0, "-root 4"},
		{"unknown arch", []string{"-coll", "bcast", "-arch", "vax"}, 0, "vax"},
		{"algo spec", []string{"-coll", "gather", "-algo", "throttled:4", "-max", "4K"}, 3, ""},
		{"algo alias", []string{"-coll", "gather", "-algo", "throttle:4", "-procs", "4", "-max", "1K"}, 1, ""},
		{"unknown algo", []string{"-coll", "bcast", "-algo", "nope"}, 0, `unknown bcast algorithm "nope"`},
		{"tuner candidate name", []string{"-coll", "gather", "-algo", "throttle-4"}, 0, `unknown gather algorithm "throttle-4"`},
		{"param on fixed family", []string{"-coll", "gather", "-algo", "binomial-shm:2"}, 0, "takes no parameter"},
		{"unknown lib", []string{"-coll", "bcast", "-lib", "nope"}, 0, `unknown library "nope"`},
		{"unknown mech", []string{"-coll", "bcast", "-mech", "nope"}, 0, `unknown mechanism "nope"`},
		{"stray argument", []string{"-coll", "bcast", "extra"}, 0, "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if out.Len() != 0 {
					t.Fatalf("rejected run printed output:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if !strings.HasPrefix(line, "#") {
					rows++
				}
			}
			if rows != tc.rows {
				t.Fatalf("%d rows, want %d:\n%s", rows, tc.rows, out.String())
			}
		})
	}
}

// TestListAlgos prints the registered specs for a known collective.
func TestListAlgos(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-coll", "scatter", "-list-algos"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parallel-read", "throttled[:k]", "tuned"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing lacks %s:\n%s", want, out.String())
		}
	}
}
