package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/proggen"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/ir"
)

// program is one corpus entry: a MiniF source and its READ input.
type program struct {
	name  string
	src   string
	input []ir.Value
}

// output is a timed operation's result, held for the oracle.
type output struct {
	item int
	text string
	err  error
}

// sequentialChunk runs op on corpus items next, next+1, ... in one
// goroutine until the ops have taken c.budget or a corpus pass has ended.
// A chunk never spans the end of a pass, so the complete passes' figures
// can be read off whole chunks.
func sequentialChunk(c chunkSpec, n int, op func(item int) time.Duration) chunkResult {
	var res chunkResult
	for k := c.next; (k == c.next || k%n != 0) && res.wall < c.budget; k++ {
		d := op(k % n)
		res.ops = append(res.ops, opSample{item: k % n, dur: d, latency: true})
		res.wall += d
	}
	return res
}

// firstPass keeps each corpus item's first engine statistics and verdict;
// the workload's deterministic counts are their sums over the corpus.
type firstPass struct {
	stats    map[int]passTotals
	verdicts map[int]verdict
}

func newFirstPass() firstPass {
	return firstPass{stats: map[int]passTotals{}, verdicts: map[int]verdict{}}
}

func (fp firstPass) noteStats(item int, t passTotals) {
	if _, ok := fp.stats[item]; !ok {
		fp.stats[item] = t
	}
}

func (fp firstPass) noteVerdict(item int, v verdict) {
	if _, ok := fp.verdicts[item]; !ok {
		fp.verdicts[item] = v
	}
}

func (fp firstPass) counts(n int) passCounts {
	var c passCounts
	for i := 0; i < n; i++ {
		c.stats.plus(fp.stats[i])
		v := fp.verdicts[i]
		c.benefit += v.benefit / float64(n)
		c.benefitMP += v.benefitMP / float64(n)
		c.interpOps += v.ops
	}
	return c
}

// corpusWorkload optimizes a fixed corpus through one pass pipeline, one
// program after another: paper-suite and large-programs.
type corpusWorkload struct {
	specNames []string
	// warm is the number of corpus items the set-up's warm-up runs.
	warm int
	load func() ([]program, error)

	pl      *pipeline
	corpus  []program
	orc     *oracle
	pending []output
	compile time.Duration
	first   firstPass
}

func (w *corpusWorkload) setup() error {
	t0 := time.Now()
	pl, err := compilePipeline(w.specNames)
	if err != nil {
		return err
	}
	w.compile = time.Since(t0)
	w.pl = pl
	if w.corpus, err = w.load(); err != nil {
		return err
	}
	for i := 0; i < w.warm; i++ {
		w.op(i, nil)
	}
	return nil
}

func (w *corpusWorkload) corpusLen() int { return len(w.corpus) }
func (w *corpusWorkload) alignEnd() bool { return false }
func (w *corpusWorkload) threads() int   { return 1 }

func (w *corpusWorkload) op(i int, rec *recorder) time.Duration {
	base := w.pl.stats
	t0 := time.Now()
	text, err := w.pl.optimizeSource(w.corpus[i].src, rec, w.corpus[i].name)
	d := time.Since(t0)
	w.first.noteStats(i, w.pl.stats.minus(base))
	w.pending = append(w.pending, output{item: i, text: text, err: err})
	return d
}

func (w *corpusWorkload) chunk(c chunkSpec, rec *recorder) (chunkResult, error) {
	return sequentialChunk(c, len(w.corpus), func(i int) time.Duration { return w.op(i, rec) }), nil
}

func (w *corpusWorkload) check() ([]verdict, error) {
	vs := make([]verdict, 0, len(w.pending))
	for _, o := range w.pending {
		p := w.corpus[o.item]
		if o.err != nil {
			vs = append(vs, verdict{why: p.name + ": " + o.err.Error()})
			continue
		}
		v, err := w.orc.check(p.src, p.input, o.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if !v.ok {
			v.why = p.name + ": " + v.why
		}
		w.first.noteVerdict(o.item, v)
		vs = append(vs, v)
	}
	w.pending = w.pending[:0]
	return vs, nil
}

func (w *corpusWorkload) counts() passCounts                           { return w.first.counts(len(w.corpus)) }
func (w *corpusWorkload) specCompile() time.Duration                   { return w.compile }
func (w *corpusWorkload) layers(map[string]float64, func(int) float64) {}
func (w *corpusWorkload) close() error                                 { return nil }

// paperSuite is the ten paper programs through the ten paper
// optimizations in Section-4 order.
func paperSuite() *corpusWorkload {
	return &corpusWorkload{
		specNames: specs.Ten,
		warm:      len(workloads.All),
		orc:       newOracle(),
		first:     newFirstPass(),
		load: func() ([]program, error) {
			var c []program
			for _, wl := range workloads.All {
				c = append(c, program{name: wl.Name, src: wl.Source, input: wl.Input})
			}
			return c, nil
		},
	}
}

// largePipeline is the five-pass pipeline ROADMAP times on hompack-ish.
var largePipeline = []string{"CTP", "CFO", "DCE", "FUS", "PAR"}

// largePrograms is hompack-ish plus n seeded proggen programs of maxStmts
// statements (n = 0 is the hompack-ish workload: that program alone, so
// the seed changes nothing). The warm-up optimizes hompack-ish once.
func largePrograms(root string, seed int64, n, maxStmts int) *corpusWorkload {
	return &corpusWorkload{
		specNames: largePipeline,
		warm:      1,
		orc:       newOracle(),
		first:     newFirstPass(),
		load: func() ([]program, error) {
			raw, err := os.ReadFile(filepath.Join(root, "examples", "programs", "hompack-ish.mf"))
			if err != nil {
				return nil, fmt.Errorf("hompack-ish: %w", err)
			}
			c := []program{{name: "hompack-ish", src: string(raw)}}
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				s := r.Int63()
				p := proggen.Generate(s, proggen.Config{MaxStmts: maxStmts})
				c = append(c, program{name: "proggen-" + strconv.FormatInt(s, 10), src: ir.ToMiniF(p)})
			}
			return c, nil
		},
	}
}

// farmAgg runs the fuzzing farm's differential checker over seeded
// aggregation-profile programs. The checker is the timed operation. The
// benchmark replays each program once through the checker's default order,
// outside the timing, for its applications and benefit and, in traced
// runs, for the engine's time split, which the checker does not expose.
type farmAgg struct {
	seed int64
	n    int
	warm int

	seeds   []int64
	ch      *farm.Checker
	pl      *pipeline
	orc     *oracle
	compile time.Duration
	pending []farmOutput
	first   firstPass
	divs    int
	// rec is set while the last chunk was traced, so its replays are too.
	rec *recorder
}

type farmOutput struct {
	item  int
	src   string
	ndivs int
	err   error
}

func newFarmAgg(seed int64, n, warm int) *farmAgg {
	return &farmAgg{seed: seed, n: n, warm: warm, orc: newOracle(), first: newFirstPass()}
}

func (w *farmAgg) setup() error {
	t0 := time.Now()
	pl, err := compilePipeline(farm.DefaultOrder())
	if err != nil {
		return err
	}
	w.compile = time.Since(t0)
	w.pl = pl
	if w.ch, err = farm.NewChecker(farm.Config{}); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(w.seed))
	w.seeds = make([]int64, w.n)
	for i := range w.seeds {
		w.seeds[i] = r.Int63()
	}
	for i := 0; i < w.warm; i++ {
		w.op(i)
	}
	return nil
}

func (w *farmAgg) corpusLen() int { return len(w.seeds) }
func (w *farmAgg) alignEnd() bool { return false }
func (w *farmAgg) threads() int   { return 1 }

func (w *farmAgg) op(i int) time.Duration {
	t0 := time.Now()
	src, divs, err := w.ch.CheckSeed(context.Background(), "aggregation", w.seeds[i], 0)
	d := time.Since(t0)
	w.pending = append(w.pending, farmOutput{item: i, src: src, ndivs: len(divs), err: err})
	return d
}

func (w *farmAgg) chunk(c chunkSpec, rec *recorder) (chunkResult, error) {
	w.rec = rec
	return sequentialChunk(c, len(w.seeds), func(i int) time.Duration {
		id := rec.begin("farm.check", strconv.FormatInt(w.seeds[i], 10), 0)
		d := w.op(i)
		rec.end(id)
		return d
	}), nil
}

// check judges each checked seed: no divergence and no error from the
// checker, and the replayed default-order output equal to the reference
// interpreter's output of the original.
func (w *farmAgg) check() ([]verdict, error) {
	vs := make([]verdict, 0, len(w.pending))
	for _, o := range w.pending {
		name := "seed " + strconv.FormatInt(w.seeds[o.item], 10)
		w.divs += o.ndivs
		switch {
		case o.err != nil:
			vs = append(vs, verdict{why: name + ": " + o.err.Error()})
			continue
		case o.ndivs > 0:
			vs = append(vs, verdict{why: fmt.Sprintf("%s: %d divergence(s)", name, o.ndivs)})
			continue
		}
		v, ok := w.first.verdicts[o.item]
		if !ok || w.rec != nil {
			base := w.pl.stats
			text, err := w.pl.optimizeSource(o.src, w.rec, name)
			if err != nil {
				vs = append(vs, verdict{why: name + ": replay: " + err.Error()})
				continue
			}
			w.first.noteStats(o.item, w.pl.stats.minus(base))
			if v, err = w.orc.check(o.src, nil, text); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if !v.ok {
				v.why = name + ": " + v.why
			}
			w.first.noteVerdict(o.item, v)
		}
		vs = append(vs, v)
	}
	w.pending = w.pending[:0]
	return vs, nil
}

func (w *farmAgg) counts() passCounts         { return w.first.counts(len(w.seeds)) }
func (w *farmAgg) specCompile() time.Duration { return w.compile }

func (w *farmAgg) layers(m map[string]float64, _ func(int) float64) {
	m["farm.divergences"] = float64(w.divs)
}

func (w *farmAgg) close() error { return nil }
