package engine_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/dep"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/proggen"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/ir"
)

var updateGolden = flag.Bool("update-search-golden", false,
	"rewrite testdata/search_golden.txt from the current engine")

// goldenSeeds is the number of proggen programs the search golden covers.
const goldenSeeds = 50

type goldenProgram struct {
	name string
	prog func() *ir.Program
}

// goldenPrograms lists the search golden's inputs: examples/programs, the
// ten workloads and goldenSeeds generated programs.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		out = append(out, goldenProgram{"ex/" + filepath.Base(f), func() *ir.Program { return frontend.MustParse(src) }})
	}
	for _, w := range workloads.All {
		out = append(out, goldenProgram{"wl/" + w.Name, w.Program})
	}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		cfg := proggen.Config{MaxStmts: 40}
		if seed%5 == 0 {
			cfg.Profile = &proggen.Profile{Loop: 1, If: 1, ScalarAssign: 2, ConstDef: 2, ArrayAssign: 2, AccumRun: 3}
		}
		out = append(out, goldenProgram{fmt.Sprintf("gen/%d", seed), func() *ir.Program { return proggen.Generate(seed, cfg) }})
	}
	return out
}

// roleSignature renders one application point with its roles: each bound
// name with its value, names sorted. Unlike engine.Signature it tells
// (Sm=S3, Sn=S4) from (Sm=S4, Sn=S3).
func roleSignature(e engine.Env) string {
	names := make([]string, 0, len(e))
	for n := range e {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := e[n]
		b.WriteString(n)
		b.WriteByte('=')
		switch v.Kind {
		case engine.VStmt:
			if v.Stmt == nil {
				b.WriteString("nil")
			} else {
				fmt.Fprintf(&b, "S%d", v.Stmt.ID)
			}
		case engine.VLoop:
			fmt.Fprintf(&b, "L%d", v.Loop().Head.ID)
		case engine.VSet:
			ids := make([]int, 0, len(v.Set()))
			for _, s := range v.Set() {
				ids = append(ids, s.ID)
			}
			sort.Ints(ids)
			fmt.Fprintf(&b, "set%v", ids)
		default:
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// searchGoldenLine runs one full precondition search and renders its
// golden line: the point count, a digest of the ordered role-aware point
// list, the first points verbatim, and the Cost and dep.Stats deltas.
func searchGoldenLine(o *engine.Optimizer, p *ir.Program) string {
	g := dep.Compute(p)
	o.ResetCost()
	st0 := g.Stats()
	pts := o.Preconditions(p, g)
	c, st := o.Cost(), g.Stats().Sub(st0)
	sigs := make([]string, len(pts))
	for i, e := range pts {
		sigs[i] = roleSignature(e)
	}
	sum := sha256.Sum256([]byte(strings.Join(sigs, "\n")))
	head := sigs
	if len(head) > 3 {
		head = head[:3]
	}
	return fmt.Sprintf("n=%d sha=%x cost=%d/%d/%d lookups=%d/%d/%d first=[%s]",
		len(pts), sum[:8], c.PatternChecks, c.DepChecks, c.MemChecks,
		st.ScalarLookups, st.ArrayLookups, st.ControlLookups, strings.Join(head, " | "))
}

// TestSearchGolden pins the precondition search of every specification
// under every strategy over a fixed program corpus: which points it
// yields, in which order with which roles, and the checks and dependence
// lookups it spends. A search rewrite must reproduce it exactly.
func TestSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the search golden")
	}
	strategies := []engine.Strategy{engine.StrategyHeuristic, engine.StrategyMembers, engine.StrategyDeps}
	var lines []string
	for _, name := range specs.Names() {
		for _, strat := range strategies {
			o := specs.MustCompile(name, engine.WithStrategy(strat))
			for _, gp := range goldenPrograms(t) {
				lines = append(lines, fmt.Sprintf("%s %s %s %s", name, strat, gp.name, searchGoldenLine(o, gp.prog())))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "search_golden.txt")
	fixPath := filepath.Join("testdata", "search_golden_rolefix.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(fixPath); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, path)
	if len(want) != len(lines) {
		t.Fatalf("golden has %d entries, search produced %d", len(want), len(lines))
	}
	// The golden was recorded before candidate de-duplication became
	// role-aware. The entries that fix changed are listed, new value and
	// all, in the rolefix file: with role-blind de-duplication a clause
	// dropped (Sm=S4, Sn=S3) as a repeat of (Sm=S3, Sn=S4), so PAR and
	// LRV could miss the witness of a carried dependence, and every such
	// clause examined fewer candidates than it enumerated.
	index := map[string]int{}
	for i, l := range want {
		index[goldenKey(l)] = i
	}
	if _, err := os.Stat(fixPath); err == nil {
		for _, l := range readGolden(t, fixPath) {
			i, ok := index[goldenKey(l)]
			if !ok {
				t.Fatalf("rolefix entry %q has no golden entry", goldenKey(l))
			}
			if want[i] == l {
				t.Fatalf("rolefix entry %q equals the golden entry; drop it", goldenKey(l))
			}
			want[i] = l
		}
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("entry %d differs:\n got  %s\n want %s", i, lines[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden entries differ", bad, len(lines))
	}
}

// goldenKey is an entry's (spec, strategy, program) prefix.
func goldenKey(line string) string {
	f := strings.Fields(line)
	return strings.Join(f[:3], " ")
}

func readGolden(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-search-golden)", err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}
