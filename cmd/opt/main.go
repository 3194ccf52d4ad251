// Command opt is the optimizer interface the paper's constructor packages
// around the generated code: it reads a MiniF program, computes data
// dependences, and applies optimizations — in batch from a flag, or
// interactively, where the user selects optimizations, application points
// and orderings, may override dependence restrictions, and chooses whether
// dependences are recomputed between optimizations.
//
// Usage:
//
//	opt -opts CTP,CFO,DCE program.mf      # batch pipeline
//	opt -opts CTP,DCE a.mf b.mf c.mf      # parallel multi-program sweep
//	opt -i program.mf                     # interactive session
//	opt -points program.mf                # application-point census
//	opt -submit URL -opts DCE a.mf        # queue a durable job on optd
//	opt -submit URL -wait -opts DCE a.mf  # queue, then block for the result
//	opt -traces URL                       # list optd's retained distributed traces
//	opt -traces URL TRACE_ID              # print one trace's span tree (cluster-merged)
//	opt -fuzz 500                         # differential-fuzz 500 generated programs locally
//	opt -fuzz 500 -submit URL             # farm the same campaign through optd's job queue
//
// With several program arguments the batch pipeline runs each program on a
// bounded worker pool (-workers) and prints the results in argument order.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/dep"
	"repro/internal/engine"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/specs"
	"repro/ir"
)

func main() {
	var (
		optsFlag    = flag.String("opts", "", "comma-separated optimizations to apply in order")
		orderFlag   = flag.String("order", "", "pass-ordering directive: auto (ask the optd advisor; needs -submit), default (run -opts as written) or an explicit comma-separated permutation of -opts")
		interactive = flag.Bool("i", false, "interactive session")
		points      = flag.Bool("points", false, "print application-point counts and exit")
		run         = flag.Bool("run", false, "execute the program after optimizing")
		inputs      = flag.String("input", "", "comma-separated input values for READ statements")
		minif       = flag.Bool("minif", false, "print the result as re-parsable MiniF source")
		specFiles   = flag.String("spec", "", "comma-separated GOSpeL specification files to apply after -opts")
		workers     = flag.Int("workers", 0, "worker pool size for multi-program batch runs (0 = GOMAXPROCS)")
		maxIter     = flag.Int("maxiter", 0, "cap applications per optimization (0 = optlib default, 1000); hitting the cap with work remaining reports the iteration-limit error")
		traceFile   = flag.String("trace", "", "write the optimization span trees as JSON to this file ('-' for stderr)")
		logfmt      = flag.String("logfmt", "text", "per-pass report format: text (NAME: N application(s)) or json (structured slog records)")
		submitURL   = flag.String("submit", "", "optd base URL: submit each program as a durable batch job instead of optimizing locally")
		waitJobs    = flag.Bool("wait", false, "with -submit, block until each job finishes and print its result")
		priority    = flag.String("priority", "", "with -submit, job priority: high, normal or low")
		tracesURL   = flag.String("traces", "", "optd base URL: list its retained distributed traces, or print the span trees of the trace IDs given as arguments")
		traceFilter = flag.String("trace-filter", "", "with -traces (list form), a raw query filter passed to /v1/traces, e.g. 'route=optimize&error=1&limit=10'")
		fuzzN       = flag.Int("fuzz", 0, "differential-fuzz this many generated programs instead of optimizing files — locally, or through optd with -submit; exits 1 when findings are recorded")
		fuzzProfile = flag.String("fuzz-profile", "aggregation", "with -fuzz, the corpus opportunity-mix profile")
		fuzzSeed    = flag.Int64("fuzz-seed", 1, "with -fuzz, the base seed; program i is generated from seed+i")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: opt [-opts LIST | -i | -points | -fuzz N] [-run] [-input v,v,...] [-maxiter N] program.mf [more.mf ...]")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
Each optimization runs to fixpoint, bounded by -maxiter (optlib.Limits).
When the cap is reached while another application point remains, opt prints
the applications performed so far, reports the iteration-limit condition
(optlib.ErrIterationLimit: a non-converging rewrite system or a cap set too
low for the program), and exits 1.`)
	}
	flag.Parse()
	// Validate flags before any work: bad values must fail fast with exit
	// code 2, not surface mid-run.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "opt: -workers must be >= 0 (got %d)\n", *workers)
		os.Exit(2)
	}
	if *maxIter < 0 {
		fmt.Fprintf(os.Stderr, "opt: -maxiter must be >= 0 (got %d)\n", *maxIter)
		os.Exit(2)
	}
	if *logfmt != "text" && *logfmt != "json" {
		fmt.Fprintf(os.Stderr, "opt: -logfmt must be text or json (got %q)\n", *logfmt)
		os.Exit(2)
	}
	for _, name := range splitList(*optsFlag) {
		if _, ok := specs.Sources[name]; !ok {
			fmt.Fprintf(os.Stderr, "opt: unknown optimization %q in -opts (have %s)\n",
				name, strings.Join(specs.Names(), ", "))
			os.Exit(2)
		}
	}
	// Fuzz mode generates its own corpus and owns the program choices:
	// flags that name input programs or shape per-program output
	// contradict it and must die here with exit 2, not be silently ignored
	// mid-campaign.
	if *fuzzN < 0 {
		fmt.Fprintf(os.Stderr, "opt: -fuzz must be >= 0 (got %d)\n", *fuzzN)
		os.Exit(2)
	}
	if *fuzzN > 0 {
		if *interactive || *points || *run || *tracesURL != "" || flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "opt: -fuzz is incompatible with -i, -points, -run, -traces and program file arguments")
			os.Exit(2)
		}
		if *orderFlag != "" {
			fmt.Fprintln(os.Stderr, "opt: -fuzz is incompatible with -order (the campaign order is -opts plus -spec names)")
			os.Exit(2)
		}
		if *traceFile != "" || *minif || *inputs != "" || *waitJobs || *priority != "" {
			fmt.Fprintln(os.Stderr, "opt: -fuzz is incompatible with -trace, -minif, -input, -wait and -priority")
			os.Exit(2)
		}
		if _, ok := farm.Profiles[*fuzzProfile]; !ok {
			fmt.Fprintf(os.Stderr, "opt: unknown -fuzz-profile %q (have %s)\n",
				*fuzzProfile, strings.Join(farm.ProfileNames(), ", "))
			os.Exit(2)
		}
	} else {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["fuzz-profile"] || set["fuzz-seed"] {
			fmt.Fprintln(os.Stderr, "opt: -fuzz-profile and -fuzz-seed are meaningless without -fuzz")
			os.Exit(2)
		}
	}
	// -order resolves to a directive string for the server (auto, default) or
	// an explicit pass order that reorders -opts locally. Validation mirrors
	// the server's rules so a bad directive dies here with exit 2 instead of
	// as a 400 after the upload.
	orderDirective := strings.ToLower(strings.TrimSpace(*orderFlag))
	effectiveOpts := *optsFlag
	switch orderDirective {
	case "":
	case "auto":
		if *submitURL == "" {
			fmt.Fprintln(os.Stderr, "opt: -order auto needs -submit (the pass-ordering advisor lives in optd)")
			os.Exit(2)
		}
		if *optsFlag == "" {
			fmt.Fprintln(os.Stderr, "opt: -order auto needs a non-empty -opts list")
			os.Exit(2)
		}
		if *specFiles != "" {
			fmt.Fprintln(os.Stderr, "opt: -order auto is incompatible with -spec (inline specs have no recorded history)")
			os.Exit(2)
		}
	case "default":
		if *optsFlag == "" {
			fmt.Fprintln(os.Stderr, "opt: -order default needs a non-empty -opts list")
			os.Exit(2)
		}
	default:
		order := splitList(*orderFlag)
		for _, name := range order {
			if _, ok := specs.Sources[name]; !ok {
				fmt.Fprintf(os.Stderr, "opt: unknown optimization %q in -order (have %s)\n",
					name, strings.Join(specs.Names(), ", "))
				os.Exit(2)
			}
		}
		if *optsFlag != "" && !samePermutation(order, splitList(*optsFlag)) {
			fmt.Fprintf(os.Stderr, "opt: -order %s must be a permutation of -opts %s\n",
				strings.Join(order, ","), strings.Join(splitList(*optsFlag), ","))
			os.Exit(2)
		}
		// An explicit order IS the pipeline, locally and remotely; with no
		// -opts it also defines the pass set, exactly like the server.
		orderDirective = strings.Join(order, ",")
		effectiveOpts = orderDirective
	}
	// Trace inspection is a pure client mode: arguments are trace IDs (or
	// nothing, for the listing), never program files.
	if *tracesURL != "" {
		if *interactive || *points || *run || *submitURL != "" || *optsFlag != "" {
			fmt.Fprintln(os.Stderr, "opt: -traces is incompatible with -i, -points, -run, -submit and -opts")
			os.Exit(2)
		}
		if err := runTraces(*tracesURL, *traceFilter, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *traceFilter != "" {
		fmt.Fprintln(os.Stderr, "opt: -trace-filter is meaningless without -traces")
		os.Exit(2)
	}

	if *fuzzN > 0 {
		var findings int
		var err error
		if *submitURL != "" {
			findings, err = runFuzzRemote(*submitURL, *fuzzN, *fuzzProfile, *fuzzSeed, *optsFlag, *specFiles)
		} else {
			findings, err = runFuzzLocal(*fuzzN, *fuzzProfile, *fuzzSeed, *optsFlag, *specFiles, *maxIter, *workers)
		}
		if err != nil {
			fatal(err)
		}
		if findings > 0 {
			os.Exit(1)
		}
		return
	}

	if flag.NArg() < 1 || ((*interactive || *points) && flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *submitURL != "" {
		if *interactive || *points || *run {
			fmt.Fprintln(os.Stderr, "opt: -submit is incompatible with -i, -points and -run")
			os.Exit(2)
		}
		switch *priority {
		case "", "high", "normal", "low":
		default:
			fmt.Fprintf(os.Stderr, "opt: -priority must be high, normal or low (got %q)\n", *priority)
			os.Exit(2)
		}
		if err := runClient(*submitURL, flag.Args(), effectiveOpts, orderDirective, *specFiles, *maxIter, *waitJobs, *minif, *priority); err != nil {
			fatal(err)
		}
		return
	}

	if *interactive || *points {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		p, err := genesis.ParseProgram(string(src))
		if err != nil {
			fatal(err)
		}
		if *points {
			for _, name := range genesis.TenOptimizations() {
				o, err := genesis.BuiltIn(name)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%-4s %d\n", name, o.Points(p))
			}
			return
		}
		session(p)
		return
	}

	// Batch pipeline. Every program argument is an independent job, so the
	// sweep fans out across the worker pool; output is emitted in argument
	// order regardless of which job finishes first.
	vals, err := parseInputs(*inputs)
	if err != nil {
		fatal(err)
	}
	files := flag.Args()
	type result struct {
		log    strings.Builder // per-optimization pass reports (stderr)
		text   string          // rendered program (stdout)
		out    []ir.Value      // execution output when -run is set
		tracer *obs.Tracer     // span collection when -trace is set
		err    error
	}
	results := par.Map(len(files), *workers, func(i int) *result {
		r := &result{}
		src, err := os.ReadFile(files[i])
		if err != nil {
			r.err = err
			return r
		}
		// Each job reports into its own buffer so parallel sweeps still print
		// in argument order: plain counts in text mode, slog records in json.
		report := func(name string, n int) {
			fmt.Fprintf(&r.log, "%s: %d application(s)\n", name, n)
		}
		if *logfmt == "json" {
			jl := obs.NewLogger(&r.log, "json", slog.LevelInfo)
			report = func(name string, n int) {
				jl.Info("pass done", slog.String("file", files[i]),
					slog.String("pass", name), slog.Int("applications", n))
			}
		}
		p, err := genesis.ParseProgram(string(src))
		if err != nil {
			r.err = err
			return r
		}
		if *traceFile != "" {
			r.tracer = obs.NewTracer(obs.Collect())
		}
		if r.err = pipeline(p, effectiveOpts, *specFiles, *maxIter, report, r.tracer); r.err != nil {
			return r
		}
		if *minif {
			r.text = ir.ToMiniF(p)
		} else {
			r.text = p.String()
		}
		if *run {
			r.out, r.err = genesis.Execute(p, vals)
		}
		return r
	})
	for i, r := range results {
		if len(files) > 1 {
			fmt.Printf("== %s ==\n", files[i])
		}
		os.Stderr.WriteString(r.log.String())
		if r.err != nil {
			fatal(r.err)
		}
		fmt.Print(r.text)
		for _, v := range r.out {
			fmt.Println(v)
		}
	}
	if *traceFile != "" {
		// Merge every job's span forest in argument order into one JSON
		// document, one "pass" root per fixpoint run.
		var trees []*obs.Node
		for _, r := range results {
			trees = append(trees, r.tracer.Trees()...)
		}
		raw, err := json.MarshalIndent(trees, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if *traceFile == "-" {
			os.Stderr.Write(raw)
		} else if err := os.WriteFile(*traceFile, raw, 0o644); err != nil {
			fatal(err)
		}
	}
}

// pipeline applies the -opts list and then any -spec files to p, calling
// report with each pass's application count. Each pass is capped at maxIter
// applications (0 = the optlib default); a capped pass still reports its
// count before the iteration-limit error propagates. A non-nil tracer
// records one span tree per fixpoint run.
func pipeline(p *ir.Program, optsFlag, specFiles string, maxIter int, report func(name string, n int), tracer *obs.Tracer) error {
	copts := []genesis.Option{}
	if maxIter > 0 {
		copts = append(copts, genesis.WithMaxApplications(maxIter))
	}
	if tracer != nil {
		copts = append(copts, genesis.WithTracer(tracer))
	}
	for _, name := range splitList(optsFlag) {
		o, err := genesis.BuiltIn(name, copts...)
		if err != nil {
			return err
		}
		n, err := o.ApplyAll(p)
		report(name, n)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for _, file := range strings.Split(specFiles, ",") {
		file = strings.TrimSpace(file)
		if file == "" {
			continue
		}
		text, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		spec, err := genesis.ParseSpec(stem(file), string(text))
		if err != nil {
			return err
		}
		o, err := spec.Compile(copts...)
		if err != nil {
			return err
		}
		n, err := o.ApplyAll(p)
		report(spec.Name(), n)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name(), err)
		}
	}
	return nil
}

// samePermutation reports whether a and b contain the same names (as sets
// with multiplicity), matching the server-side permutation check.
func samePermutation(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, n := range a {
		count[n]++
	}
	for _, n := range b {
		count[n]--
		if count[n] < 0 {
			return false
		}
	}
	return true
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.ToUpper(strings.TrimSpace(parts[i]))
	}
	return parts
}

func parseInputs(s string) ([]ir.Value, error) {
	var out []ir.Value
	for _, part := range splitList(s) {
		if i, err := strconv.ParseInt(part, 10, 64); err == nil {
			out = append(out, ir.IntVal(i))
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input value %q", part)
		}
		out = append(out, ir.FloatVal(f))
	}
	return out, nil
}

// session is the interactive interface: Step 3.b.iii of the GENesis
// algorithm (select optimizations, application points, override
// dependences, recompute or not, run).
func session(p *ir.Program) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("GENesis interactive optimizer — 'help' for commands")
	recompute := true
	// The session owns the program's change journal: the dependence graph is
	// computed once and then incrementally updated from the journal before
	// each command that consults it, instead of recomputing from scratch.
	log, _ := p.EnsureLog()
	g := dep.Compute(p)
	sync := func() {
		if cs := log.Changes(); len(cs) > 0 {
			g.Update(cs)
		}
		log.Reset()
	}
	for {
		fmt.Print("opt> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToLower(fields[0])
		arg := ""
		if len(fields) > 1 {
			arg = strings.ToUpper(fields[1])
		}
		switch cmd {
		case "help":
			fmt.Println(`commands:
  list              built-in optimizations
  show              print the current program
  deps              print the dependence graph
  points OPT        list application points of OPT
  apply OPT [N]     apply OPT at point N (default 1), overriding nothing
  force OPT N       apply OPT at point N overriding dependence restrictions
  applyall OPT      apply OPT at all points (fixpoint)
  recompute on|off  recompute dependences between applications (now ` + fmt.Sprint(recompute) + `)
  run [v,v,...]     execute the program with the given inputs
  quit`)
		case "list":
			for _, n := range genesis.BuiltInNames() {
				fmt.Println(" ", n)
			}
		case "show":
			fmt.Print(p.String())
		case "deps":
			sync()
			fmt.Print(g.String())
		case "points":
			eng, err := compileEngine(arg, recompute)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			sync()
			pts := eng.Preconditions(p, g)
			for i, env := range pts {
				fmt.Printf("  %d: %v\n", i+1, env)
			}
			if len(pts) == 0 {
				fmt.Println("  (none)")
			}
		case "apply", "force":
			eng, err := compileEngine(arg, recompute)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			idx := 1
			if len(fields) > 2 {
				idx, _ = strconv.Atoi(fields[2])
			}
			sync()
			pts := eng.Preconditions(p, g)
			if cmd == "force" {
				// Overriding dependence restrictions: match only the code
				// pattern, skipping the Depend section, as the paper's
				// interface permits.
				fmt.Println("note: force applies at a precondition point; dependence overrides are per-point")
			}
			if idx < 1 || idx > len(pts) {
				fmt.Printf("point %d of %d not available\n", idx, len(pts))
				continue
			}
			if err := eng.ApplyAt(p, g, pts[idx-1]); err != nil {
				fmt.Println("error:", err)
				continue
			}
			sync()
			fmt.Println("applied")
		case "applyall":
			eng, err := compileEngine(arg, recompute)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			apps, err := eng.ApplyAll(p)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			sync()
			fmt.Printf("%d application(s)\n", len(apps))
		case "recompute":
			recompute = arg != "OFF"
			fmt.Println("recompute =", recompute)
		case "run":
			var vals []ir.Value
			if len(fields) > 1 {
				v, err := parseInputs(fields[1])
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				vals = v
			}
			out, err := genesis.Execute(p, vals)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, v := range out {
				fmt.Println(" ", v)
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command; try 'help'")
		}
	}
}

func compileEngine(name string, recompute bool) (*engine.Optimizer, error) {
	src, ok := specs.Sources[name]
	if !ok {
		return nil, fmt.Errorf("unknown optimization %q", name)
	}
	spec, err := parseChecked(name, src)
	if err != nil {
		return nil, err
	}
	opts := []engine.Option{}
	if !recompute {
		opts = append(opts, engine.WithoutRecompute())
	}
	return engine.Compile(spec, opts...)
}

// stem derives an optimization name from a file path.
func stem(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	return strings.ToUpper(base)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opt:", err)
	os.Exit(1)
}
