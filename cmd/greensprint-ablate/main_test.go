package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ablate.golden from the current output")

// TestRunGolden pins every number the ablation suite prints (DESIGN.md
// §6 and EXPERIMENTS.md cite them): run(all) must match
// testdata/ablate.golden byte for byte. Regenerate with
// go test ./cmd/greensprint-ablate -run TestRunGolden -update.
func TestRunGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "ablate.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestRunGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("ablation output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, buf.Bytes(), want)
	}
}

func TestRunIntegration(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "integration"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "distributed") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestRunDoD(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "dod"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"40%", "1300", "depth of discharge"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunFailures(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "failures"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cloud-transient") || !strings.Contains(out, "battery-dead") {
		t.Errorf("output: %s", out)
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope"); err == nil {
		t.Error("unknown ablation should error")
	}
}
