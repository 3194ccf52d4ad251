package codegen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/frontend"
	"repro/internal/gospel"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/ir"
)

// runnerMain drives the generated optimizers of one build: it reads a JSON
// list of jobs (a MiniF source and the pass names to run on it, in order)
// on stdin, runs each pass to fixpoint with optlib.Fixpoint, and writes one
// result per job on stdout. It imports only what generated code imports
// (ir and optlib), so the binary links the same library surface as a
// generated command-line optimizer. %s is the registry body.
const runnerMain = `package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/ir"
	"repro/optlib"
)

var registry = map[string]optlib.ApplyFunc{
%s}

type job struct {
	Source string
	Passes []string
}

type result struct {
	IR, MiniF string
	Apps      []int
	Err       string
}

func main() {
	var jobs []job
	if err := json.NewDecoder(os.Stdin).Decode(&jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out := make([]result, len(jobs))
	for i, j := range jobs {
		out[i] = run(j)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(j job) (r result) {
	p, err := optlib.ParseMiniF(j.Source)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	for _, name := range j.Passes {
		n, err := optlib.Fixpoint(p, registry[name], optlib.Limits{})
		r.Apps = append(r.Apps, n)
		if err != nil {
			r.Err = name + ": " + err.Error()
			return r
		}
	}
	r.IR, r.MiniF = p.String(), ir.ToMiniF(p)
	return r
}
`

type runnerJob struct {
	Source string
	Passes []string
}

type runnerResult struct {
	IR, MiniF string
	Apps      []int
	Err       string
}

// TestGeneratedOptimizersCompileAndMatchEngine is the end-to-end check of
// the generator: every specification is emitted as Go, compiled with the
// real Go toolchain into one runner binary, run over every workload, and
// the resulting programs and application counts compared against the
// GOSpeL engine's ApplyAll. This is the reproduction of the paper's claim
// that the generated optimizers produce the same code as the
// (engine-)applied optimizations. It also runs the hompack-ish
// CTP,CFO,DCE,FUS,PAR pipeline through the generated optimizers pass after
// pass, which must match the engine byte for byte.
//
// The build is a throwaway module in a temp dir whose go.mod replaces repro
// with this checkout, so it needs no network. A failed build fails the
// test: a generator that emits code the toolchain rejects is a defect, not
// an environment problem.
func TestGeneratedOptimizersCompileAndMatchEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping toolchain integration")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root := moduleRoot(t)
	runner := buildRunner(t, root)

	hompack, err := os.ReadFile(filepath.Join(root, "examples", "programs", "hompack-ish.mf"))
	if err != nil {
		t.Fatal(err)
	}
	type check struct {
		label  string
		source string
		passes []string
	}
	var checks []check
	for _, w := range workloads.All {
		for _, name := range specs.Names() {
			checks = append(checks, check{name + " on " + w.Name, w.Source, []string{name}})
		}
	}
	pipeline := []string{"CTP", "CFO", "DCE", "FUS", "PAR"}
	checks = append(checks, check{"CTP,CFO,DCE,FUS,PAR on hompack-ish", string(hompack), pipeline})

	jobs := make([]runnerJob, len(checks))
	for i, c := range checks {
		jobs[i] = runnerJob{Source: c.source, Passes: c.passes}
	}
	results := runRunner(t, runner, jobs)

	for i, c := range checks {
		res := results[i]
		if res.Err != "" {
			t.Fatalf("%s: generated optimizer: %s", c.label, res.Err)
		}
		p := frontend.MustParse(c.source)
		for k, name := range c.passes {
			apps, err := specs.MustCompile(name).ApplyAll(p)
			if err != nil {
				t.Fatalf("%s: engine %s: %v", c.label, name, err)
			}
			if res.Apps[k] != len(apps) {
				t.Errorf("%s: %s: generated optimizer made %d application(s), engine %d",
					c.label, name, res.Apps[k], len(apps))
			}
		}
		if res.IR != p.String() {
			t.Errorf("%s: generated optimizer and engine disagree\n--- generated ---\n%s--- engine ---\n%s",
				c.label, res.IR, p.String())
		}
		if res.MiniF != ir.ToMiniF(p) {
			t.Errorf("%s: generated optimizer and engine print different MiniF\n--- generated ---\n%s--- engine ---\n%s",
				c.label, res.MiniF, ir.ToMiniF(p))
		}
	}
}

// moduleRoot walks up from the test's directory to the repro go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// buildRunner writes every spec's generated optimizer plus runnerMain into
// one temp module and builds it, returning the binary's path.
func buildRunner(t *testing.T, root string) string {
	t.Helper()
	dir := t.TempDir()
	var registry strings.Builder
	for _, name := range specs.Names() {
		spec, err := gospel.ParseAndCheck(name, specs.Sources[name])
		if err != nil {
			t.Fatal(err)
		}
		src, err := codegen.Generate(spec, codegen.Options{Package: "main"})
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, "gen_"+strings.ToLower(name)+".go"), src)
		fmt.Fprintf(&registry, "\t%q: apply%s,\n", name, name)
	}
	writeFile(t, filepath.Join(dir, "main.go"), fmt.Sprintf(runnerMain, registry.String()))
	goLine := "go 1.24"
	if raw, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "go ") {
				goLine = strings.TrimSpace(line)
			}
		}
	}
	writeFile(t, filepath.Join(dir, "go.mod"), fmt.Sprintf(
		"module gentest\n\n%s\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", goLine, root))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := filepath.Join(dir, "runner")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the generated optimizers failed: %v\n%s", err, out)
	}
	return bin
}

func runRunner(t *testing.T, bin string, jobs []runnerJob) []runnerResult {
	t.Helper()
	in, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin)
	cmd.Stdin = bytes.NewReader(in)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("running the generated optimizers: %v\n%s", err, stderr.Bytes())
	}
	var results []runnerResult
	if err := json.Unmarshal(out, &results); err != nil {
		t.Fatalf("decoding runner output: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("runner returned %d results for %d jobs", len(results), len(jobs))
	}
	return results
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
