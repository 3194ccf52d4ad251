package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// kRef is the reference kernel time in nanoseconds: the median kernel run
// on the host the bounds were tuned on (2 cores, Go 1.24). Calibrated
// times are raw × kRef / K_measured, so they stay in seconds and read
// close to raw times on that host. Changing kRef rescales every timing
// metric, which breaks comparison with earlier runs.
const kRef = 27.0e6

// kernelReps is how many kernel runs one calibration window takes; the
// window reports their median, so a single preempted run does not move it.
const kernelReps = 3

// quietShare is the largest CPU time the measured process may use during
// a calibration window, as a share of the window. Waking up for the
// kernel's three replies costs about 0.5%; more means something in the
// measured process (a GC cycle, a leftover goroutine) ran alongside the
// kernel and could have slowed it, faking a gain.
const quietShare = 0.05

// calibrator drives the kernel helper process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	// cpu reads the measured process's CPU time; a field so tests can
	// substitute a busy process.
	cpu func() time.Duration
	// windows records every window's kernel time, for host.calib_ms.
	windows []float64
}

// startCalibrator starts the kernel helper with as many threads as the
// workload keeps busy, so host contention slows both alike.
func startCalibrator(kernelPath string, threads int) (*calibrator, error) {
	cmd := exec.Command(kernelPath, "-threads", strconv.Itoa(threads))
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("kernel stdin: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("kernel stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kernel %s: %w", kernelPath, err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out), cpu: processCPU}, nil
}

// close ends the helper and waits for it to exit.
func (c *calibrator) close() error {
	_ = c.in.Close()
	return c.cmd.Wait()
}

// processCPU returns the user+system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quiesce waits until the measured process uses almost no CPU, so work
// left over from the last chunk (a concurrent GC cycle, a closing
// connection) finishes before the kernel runs, not during it.
func (c *calibrator) quiesce() {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c0 := c.cpu()
		time.Sleep(5 * time.Millisecond)
		if c.cpu()-c0 < 500*time.Microsecond {
			return
		}
	}
}

// windowTries bounds how often a disturbed window is retaken before the
// run fails. The runtime's background scavenger, returning the last
// chunk's heap to the OS, occasionally disturbs one.
const windowTries = 5

// window runs a calibration window and returns the kernel time in ns. A
// window during which the measured process was not quiescent is thrown
// away and retaken; the run fails after windowTries disturbed windows.
func (c *calibrator) window() (float64, error) {
	var err error
	for i := 0; i < windowTries; i++ {
		var k float64
		if k, err = c.tryWindow(); err == nil {
			return k, nil
		}
		var busy *busyError
		if !errors.As(err, &busy) {
			return 0, err
		}
	}
	return 0, err
}

func (c *calibrator) tryWindow() (float64, error) {
	c.quiesce()
	cpu0, t0 := c.cpu(), time.Now()
	runs := make([]float64, 0, kernelReps)
	for i := 0; i < kernelReps; i++ {
		if _, err := io.WriteString(c.in, "\n"); err != nil {
			return 0, fmt.Errorf("kernel: %w", err)
		}
		line, err := c.out.ReadString('\n')
		if err != nil {
			return 0, fmt.Errorf("kernel: %w", err)
		}
		ns, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil || ns <= 0 {
			return 0, fmt.Errorf("kernel: bad reply %q", line)
		}
		runs = append(runs, ns)
	}
	if err := quiet(c.cpu()-cpu0, time.Since(t0)); err != nil {
		return 0, err
	}
	sort.Float64s(runs)
	k := runs[len(runs)/2]
	c.windows = append(c.windows, k)
	return k, nil
}

// quiet is the quiescence guard: it fails a window in which the measured
// process used more than quietShare of the window's wall time.
func quiet(busy, wall time.Duration) error {
	if float64(busy) > quietShare*float64(wall) {
		return &busyError{busy: busy, wall: wall}
	}
	return nil
}

// busyError reports a calibration window the measured process disturbed.
type busyError struct{ busy, wall time.Duration }

func (e *busyError) Error() string {
	return fmt.Sprintf("calibration window not quiescent: measured process used %v CPU in %v", e.busy, e.wall)
}

// calibFactor is the scale for a span timed between two kernel windows:
// kRef over their mean, so a host drift that is linear across the span
// cancels.
func calibFactor(before, after float64) float64 {
	return kRef / ((before + after) / 2)
}
