package wisp_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeCommands builds every cmd/ main and runs it with -h: the flag
// package prints usage and exits 0, proving each binary links, parses its
// flag set and reaches main without side effects.  benchprims is left
// out: it defines no flags, so -h would run its whole timing gate.
func TestSmokeCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := []string{"benchcmp", "wispd", "wispexplore", "wispgap", "wispgw", "wispload", "wispselect", "wispsim", "wispssl"}
	dir := t.TempDir()
	for _, name := range bins {
		out := filepath.Join(dir, name)
		build := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		build.Env = os.Environ()
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		run := exec.Command(out, "-h")
		if msg, err := run.CombinedOutput(); err != nil {
			t.Errorf("%s -h: %v\n%s", name, err, msg)
		}
	}
}

// TestSmokeQuickstartExample runs the fastest example end to end (the
// examples take no flags, so -h would not short-circuit them; quickstart
// completes in well under a second).
func TestSmokeQuickstartExample(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an example binary")
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart: %v\n%s", err, out)
	}
	if len(out) == 0 {
		t.Error("quickstart produced no output")
	}
}

// TestSmokeExamplesBuild compiles the remaining examples without running
// them (some simulate full workloads and take seconds to minutes).
func TestSmokeExamplesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds example binaries")
	}
	examples := []string{
		"algorithm-exploration", "custom-instructions", "ssl-transaction", "video-decrypt",
	}
	dir := t.TempDir()
	for _, name := range examples {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./examples/"+name)
		build.Env = os.Environ()
		if msg, err := build.CombinedOutput(); err != nil {
			t.Errorf("build examples/%s: %v\n%s", name, err, msg)
		}
	}
}
