package main

import (
	"errors"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// kernelPath is the calibration kernel built once for the package's tests.
var kernelPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	kernelPath = filepath.Join(dir, "kernel")
	out, err := exec.Command("go", "build", "-o", kernelPath, "./kernel").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building the kernel: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestCalibFactor(t *testing.T) {
	cases := []struct{ before, after, want float64 }{
		{kRef, kRef, 1},
		{2 * kRef, 2 * kRef, 0.5},
		// A host slowing down linearly across the chunk: the mean of the
		// two windows is the chunk's average speed.
		{kRef, 3 * kRef, 0.5},
	}
	for _, c := range cases {
		if got := calibFactor(c.before, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("calibFactor(%v, %v) = %v, want %v", c.before, c.after, got, c.want)
		}
	}
	// A chunk that took 2 s while the kernel ran at half speed took 1 s of
	// calibrated time.
	if got := 2.0 * calibFactor(2*kRef, 2*kRef); got != 1 {
		t.Errorf("calibrated chunk = %v s, want 1", got)
	}
}

func TestQuietGuard(t *testing.T) {
	if err := quiet(time.Millisecond, 100*time.Millisecond); err != nil {
		t.Errorf("1%% busy: %v", err)
	}
	var busy *busyError
	if err := quiet(10*time.Millisecond, 100*time.Millisecond); !errors.As(err, &busy) {
		t.Errorf("10%% busy: got %v, want a busyError", err)
	}
}

func TestWindowRejectsBusyProcess(t *testing.T) {
	c, err := startCalibrator(kernelPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	k, err := c.window()
	if err != nil || k <= 0 {
		t.Fatalf("quiet window: k=%v err=%v", k, err)
	}
	// Pretend the measured process burns a millisecond of CPU on every
	// reading: every window is disturbed, so the run must fail.
	var fake time.Duration
	c.cpu = func() time.Duration {
		fake += 10 * time.Millisecond
		return fake
	}
	var busy *busyError
	if _, err := c.window(); !errors.As(err, &busy) {
		t.Fatalf("busy window: got %v, want a busyError", err)
	}
}

func TestWindowSeesRealWork(t *testing.T) {
	c, err := startCalibrator(kernelPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		x := 0
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < 1e5; i++ {
					x += i
				}
			}
		}
	}()
	_, err = c.tryWindow()
	close(stop)
	<-done
	var busy *busyError
	if !errors.As(err, &busy) {
		t.Fatalf("window alongside a spinning goroutine: got %v, want a busyError", err)
	}
}

func TestKernelImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob("kernel/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("kernel sources: %v %v", files, err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if strings.Contains(first, ".") || first == "repro" {
				t.Errorf("%s imports %s; the kernel may use only the standard library", f, path)
			}
		}
	}
}
