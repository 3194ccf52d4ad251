// Command kernel is the benchmark's calibration reference: a fixed CPU and
// allocation workload whose run time tracks how fast the host is right
// now. The benchmark runs it in this separate process, while the measured
// process is idle, and scales every timing by K_ref / K_measured.
//
// It must not depend on the program under test: it imports only the
// standard library, so no change to the repository can make it faster or
// slower. The benchmark's tests enforce this.
//
// Protocol: each line read from stdin runs the kernel once and writes the
// elapsed nanoseconds as one decimal line to stdout. EOF exits. With
// -threads N, N copies of the work run at once on N threads, matching a
// workload that keeps N cores busy; the time is until all are done.
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// node is one cell of the pointer tree that makes the kernel's own garbage
// collector do mark work, so GC-bound host slowdowns show in K_measured.
type node struct {
	left, right *node
	val         int64
}

func build(depth int, v int64) *node {
	if depth == 0 {
		return &node{val: v}
	}
	return &node{left: build(depth-1, 2*v), right: build(depth-1, 2*v+1), val: v}
}

func (n *node) sum() int64 {
	if n == nil {
		return 0
	}
	return n.val + n.left.sum() + n.right.sum()
}

// work is one kernel run: sort, map, hash and pointer-tree allocation,
// each sized to a few milliseconds, from fixed inputs. The result keeps
// the work from being optimized away.
func work() int64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ints := make([]int, 60000)
	for i := range ints {
		ints[i] = int(next() >> 1)
	}
	sort.Ints(ints)

	m := make(map[uint64]int64)
	for i := 0; i < 40000; i++ {
		m[next()%50000] += int64(i)
	}
	var acc int64
	for k := uint64(0); k < 50000; k++ {
		acc += m[k]
	}

	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(next())
	}
	h := sha256.Sum256(buf)

	for r := 0; r < 4; r++ {
		acc += build(14, int64(r)).sum()
	}
	return acc + int64(h[0]) + int64(ints[len(ints)/2]&1)
}

func main() {
	threads := flag.Int("threads", 1, "copies of the work to run at once")
	flag.Parse()
	if *threads < 1 {
		fmt.Fprintln(os.Stderr, "kernel: -threads must be at least 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(*threads)
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	sums := make([]int64, *threads)
	for in.Scan() {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range sums {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sums[i] += work()
			}(i)
		}
		wg.Wait()
		fmt.Fprintln(out, time.Since(t0).Nanoseconds())
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}
