package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	racetrack "repro"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// cfg returns a runConfig with small search budgets for tests.
func cfg(path, strategy, format string, dbcs int) runConfig {
	return runConfig{
		path: path, strategy: strategy, format: format,
		wordBytes: 4, dbcs: dbcs,
		gaGens: 10, gaMu: 10, rwIters: 50, workers: 2, seed: 1,
	}
}

func TestRunVarsFormat(t *testing.T) {
	path := writeTemp(t, "t.trace", "seq f\na b a b c c\nseq g\nx y x\n")
	c := cfg(path, "DMA-SR", "vars", 4)
	c.verbose = true
	if err := run(c); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAddrFormat(t *testing.T) {
	path := writeTemp(t, "t.addr", "R 0x100\nW 0x104\nR 0x100\n")
	if err := run(cfg(path, "AFD-OFU", "addr", 2)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllStrategies(t *testing.T) {
	path := writeTemp(t, "t.trace", "a b a b c a c a d d a\n")
	for _, s := range []string{"AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW", "DMA-2opt", "GA-2opt"} {
		c := cfg(path, s, "vars", 2)
		c.gaGens, c.gaMu, c.rwIters, c.workers = 5, 8, 20, 1
		if err := run(c); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestRunNonTableIDBCCount(t *testing.T) {
	// 3 DBCs has no Table I row; placement must still work, energy is
	// skipped gracefully.
	path := writeTemp(t, "t.trace", "a b a b\n")
	if err := run(cfg(path, "DMA-OFU", "vars", 3)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunTimeout(t *testing.T) {
	// An already-expired timeout aborts before placing anything.
	path := writeTemp(t, "t.trace", "a b a b c a c a d d a\n")
	c := cfg(path, "DMA-SR", "vars", 4)
	c.timeout = time.Nanosecond
	if err := run(c); err == nil {
		t.Error("expired timeout did not abort the run")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cfg(filepath.Join(t.TempDir(), "missing"), "DMA-SR", "vars", 2)); err == nil {
		t.Error("missing file accepted")
	}
	empty := writeTemp(t, "empty.trace", "# nothing\n")
	if err := run(cfg(empty, "DMA-SR", "vars", 2)); err == nil {
		t.Error("empty trace accepted")
	}
	bad := writeTemp(t, "t.trace", "a b\n")
	if err := run(cfg(bad, "nope", "vars", 2)); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run(cfg(bad, "DMA-SR", "bogus", 2)); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunStream drives -format bin -stream at one and two ports: the
// streamed path stitches windows under the multi-port model too.
func TestRunStream(t *testing.T) {
	b, err := racetrack.ParseBenchmark("s", "seq f\na b a c b a d c a b e d a c e b a\nseq g\nx y x z y x\n")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := racetrack.WriteBinaryBenchmark(&buf, b); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "t.rtb", buf.String())
	for _, ports := range []int{1, 2} {
		c := cfg(path, "DMA-SR", "bin", 4)
		c.stream, c.window, c.ports = true, 5, ports
		if err := run(c); err != nil {
			t.Errorf("ports=%d: %v", ports, err)
		}
	}
}
