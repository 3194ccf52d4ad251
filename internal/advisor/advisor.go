// Package advisor closes the loop from production history to scheduling
// decisions. The paper's E3 experiment found that no single application
// order of the generated optimizers wins across programs; ordering is an
// empirical, per-program question. The advisor answers it empirically:
// every completed optimization run is harvested into an append-only
// outcome store as (feature vector, pass order, applied actions, wall
// time), and an order=auto request retrieves the k nearest historical
// programs by feature geometry and replays the ordering that served them
// best. With no comparable history it falls back to the default order —
// the advisor can recommend, never degrade.
package advisor

import (
	"fmt"
	"sync"
	"time"
)

// Config parameterizes an Advisor.
type Config struct {
	// Dir is the persistence directory for the outcome store. Empty keeps
	// the store memory-only (lost on restart).
	Dir string
	// K is the neighbor count consulted per decision (default 8).
	K int
	// MinNeighbors is the evidence floor: fewer comparable neighbors than
	// this and the decision is a fallback to the default order (default 3).
	MinNeighbors int
	// MaxRecords bounds the store window; older records compact away
	// (default 4096).
	MaxRecords int
	// FeatureCacheEntries bounds the per-source feature vector cache
	// (default 256).
	FeatureCacheEntries int
	// Obs receives advisor observability events; any field may be nil.
	Obs Obs
}

// Obs carries the advisor's observability callbacks. They fire outside the
// advisor lock except StoreSize, which reports under it (a bare gauge
// store on the consumer side, no re-entrancy).
type Obs struct {
	// Harvested fires after an outcome lands in the store.
	Harvested func()
	// Dropped fires when the harvest queue is full and an outcome is shed.
	Dropped func()
	// StoreSize reports the record count after each store mutation.
	StoreSize func(n int)
}

// Outcome is one completed optimization run, as observed by the serving
// layer. Source is re-featurized by the advisor (the harvest path is
// asynchronous, so the parse cost never lands on a request).
type Outcome struct {
	Source  string
	Opts    []string // the optimization set (any order)
	Order   []string // the order actually executed
	Applied int
	WallUS  int64
	Engine  string
}

// Advisor owns the feature extractor, the outcome store, and a harvest
// worker. Choose is synchronous (it is on the request path); Harvest is a
// non-blocking enqueue serviced by one background goroutine.
type Advisor struct {
	cfg       Config
	extractor *Extractor

	mu    sync.Mutex
	store *Store

	harvestCh chan Outcome
	wg        sync.WaitGroup
	quit      chan struct{}

	pendMu  sync.Mutex
	pending int
	pendCV  *sync.Cond
}

// Open builds the advisor: compiles the feature matchers and opens (or
// creates) the outcome store under cfg.Dir.
func Open(cfg Config) (*Advisor, error) {
	if cfg.K < 1 {
		cfg.K = 8
	}
	if cfg.MinNeighbors < 1 {
		cfg.MinNeighbors = 3
	}
	if cfg.MaxRecords < 1 {
		cfg.MaxRecords = 4096
	}
	ex, err := NewExtractor(cfg.FeatureCacheEntries)
	if err != nil {
		return nil, err
	}
	path := ""
	if cfg.Dir != "" {
		path = cfg.Dir + "/outcomes.log"
	}
	store, err := OpenStore(path, cfg.MaxRecords)
	if err != nil {
		return nil, err
	}
	a := &Advisor{
		cfg:       cfg,
		extractor: ex,
		store:     store,
		harvestCh: make(chan Outcome, 256),
		quit:      make(chan struct{}),
	}
	a.pendCV = sync.NewCond(&a.pendMu)
	if cfg.Obs.StoreSize != nil {
		cfg.Obs.StoreSize(store.Len())
	}
	a.wg.Add(1)
	go a.harvestLoop()
	return a, nil
}

// Close stops the harvest worker (draining queued outcomes) and closes the
// store.
func (a *Advisor) Close() error {
	close(a.quit)
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.store.Close()
}

// Size reports the live record count.
func (a *Advisor) Size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.store.Len()
}

// Harvest enqueues one outcome for asynchronous ingestion. It never blocks:
// when the queue is full the outcome is shed (and counted via Obs.Dropped).
// Returns whether the outcome was accepted.
func (a *Advisor) Harvest(o Outcome) bool {
	if len(o.Order) == 0 || o.Source == "" {
		return false
	}
	a.pendMu.Lock()
	a.pending++
	a.pendMu.Unlock()
	select {
	case a.harvestCh <- o:
		return true
	default:
		a.done()
		if a.cfg.Obs.Dropped != nil {
			a.cfg.Obs.Dropped()
		}
		return false
	}
}

// Flush blocks until every previously accepted outcome has been ingested —
// a test barrier over the asynchronous harvest path.
func (a *Advisor) Flush() {
	a.pendMu.Lock()
	for a.pending > 0 {
		a.pendCV.Wait()
	}
	a.pendMu.Unlock()
}

func (a *Advisor) done() {
	a.pendMu.Lock()
	a.pending--
	if a.pending == 0 {
		a.pendCV.Broadcast()
	}
	a.pendMu.Unlock()
}

func (a *Advisor) harvestLoop() {
	defer a.wg.Done()
	for {
		select {
		case o := <-a.harvestCh:
			a.ingest(o)
		case <-a.quit:
			// Drain what was accepted before shutdown.
			for {
				select {
				case o := <-a.harvestCh:
					a.ingest(o)
				default:
					return
				}
			}
		}
	}
}

func (a *Advisor) ingest(o Outcome) {
	defer a.done()
	vec, err := a.extractor.Vector(o.Source)
	if err != nil {
		return // unparseable source cannot be featurized; drop silently
	}
	rec := &Record{
		Schema:  SchemaVersion,
		Vec:     vec,
		Opts:    o.Opts,
		Order:   o.Order,
		Applied: o.Applied,
		WallUS:  o.WallUS,
		Engine:  o.Engine,
	}
	if len(rec.Opts) == 0 {
		rec.Opts = o.Order
	}
	a.mu.Lock()
	addErr := a.store.Add(rec)
	n := a.store.Len()
	a.mu.Unlock()
	if addErr != nil {
		return
	}
	if a.cfg.Obs.Harvested != nil {
		a.cfg.Obs.Harvested()
	}
	if a.cfg.Obs.StoreSize != nil {
		a.cfg.Obs.StoreSize(n)
	}
}

// Choose recommends a pass order for source over the optimization set opts.
// It featurizes the source (cached by content hash), votes over the k
// nearest comparable records, and returns the decision together with the
// retrieval latency for the caller's histogram. A cold or thin store
// returns Fallback=true, never an error; a parse failure is a real error
// (the caller's own parse would fail identically moments later).
func (a *Advisor) Choose(source string, opts []string) (Decision, time.Duration, error) {
	t0 := time.Now()
	vec, err := a.extractor.Vector(source)
	if err != nil {
		return Decision{}, time.Since(t0), fmt.Errorf("advisor: featurize: %w", err)
	}
	a.mu.Lock()
	recs := a.store.Records()
	a.mu.Unlock()
	d := choose(recs, vec, opts, a.cfg.K, a.cfg.MinNeighbors)
	return d, time.Since(t0), nil
}
