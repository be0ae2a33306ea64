// Command pilgrimd runs the Pilgrim server: the metrology RRD service and
// the network forecast service (PNFS), as deployed in the paper (§IV-C).
//
// Usage:
//
//	pilgrimd [-addr :8080] [-g5k-api URL] [-rrd-tree DIR]
//	         [-platforms LIST]
//	         [-gamma-latfactor] [-equipment-limits] [-measured-latencies]
//	         [-forecast-cache N] [-forecast-workers N]
//	         [-timeline-depth N] [-forecast-horizon-max D]
//	         [-max-scenarios N] [-max-evaluate-fanout N]
//	         [-data-dir DIR] [-fsync POLICY] [-snapshot-every N]
//	         [-max-inflight N] [-max-queue N] [-max-body-bytes N]
//	         [-drain-timeout D]
//	         [-shard-self NAME] [-shards LIST] [-shard-map FILE]
//
// The -platforms list (default g5k_test,g5k_cabinets; g5k_mini — the
// compact two-site flavour campaigns use — is also available) is
// generated from the Grid'5000 reference description — fetched from a
// reference API server when -g5k-api is given, otherwise the embedded
// dataset — compiled into immutable snapshots and registered under the
// paper names. Live
// measurements can be folded into a platform at runtime through
// POST /pilgrim/update_links/{platform} (see docs/API.md); each
// timestamped observation appends a new copy-on-write epoch to the
// platform's timeline (bounded by -timeline-depth) and feeds its NWS
// forecaster bank, so predict_transfers/select_fastest can answer at any
// past time — and extrapolate up to -forecast-horizon-max into the
// future. An RRD file tree (as written by the metrology collector) can be
// served with -rrd-tree. Batched what-if evaluation
// (POST /pilgrim/evaluate/{platform}: N scenarios × M queries) is bounded
// by -max-scenarios and -max-evaluate-fanout; a derived scenario's cell
// reuses the base run's answer when its routes miss every mutation.
//
// With -data-dir the registry is durable: every accepted observation,
// background estimate, and rejected batch is written to a CRC-checked
// write-ahead log before being applied (fsync cadence per -fsync,
// snapshot compaction every -snapshot-every records), and a restart
// recovers the timelines byte-identically — same epoch ids, same stats,
// same forecasts. See docs/OPERATIONS.md.
//
// -max-inflight/-max-queue bound the simulation endpoints: beyond the
// queue, requests are shed with 429 + Retry-After. SIGTERM/SIGINT drain
// gracefully: the listener closes, in-flight requests get -drain-timeout
// to finish, and the durable store is flushed and closed.
//
// In a sharded fleet behind pilgrimgw, -shard-self names this worker in
// the shard map given by -shards ("name=url,..." ) and/or -shard-map (a
// JSON file); platform-scoped requests for platforms the rendezvous
// ring assigns elsewhere are rejected with 421 and the owner's URL, so
// a misconfigured client (or a gateway with a stale map) fails loudly
// instead of computing against the wrong timeline. SIGHUP re-reads
// -shard-map. See docs/OPERATIONS.md ("Running a fleet").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/metrology"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/shard"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// options carries the parsed command line into run.
type options struct {
	addr      string
	g5kAPI    string
	rrdTree   string
	platforms string

	shardSelf string
	shards    string
	shardMap  string

	gammaLat    bool
	equipLimits bool
	measuredLat bool

	cacheSize    int
	workers      int
	tlDepth      int
	horizon      time.Duration
	maxScenarios int
	maxFanout    int

	dataDir       string
	fsync         store.FsyncPolicy
	snapshotEvery int

	maxInflight  int
	maxQueue     int
	maxBodyBytes int64
	drainTimeout time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.g5kAPI, "g5k-api", "", "base URL of a Grid'5000 reference API server (default: embedded dataset)")
	flag.StringVar(&o.rrdTree, "rrd-tree", "", "directory of RRD files to serve through the metrology service")
	flag.StringVar(&o.platforms, "platforms", "g5k_test,g5k_cabinets", "comma-separated platforms to register (g5k_test, g5k_cabinets, g5k_mini)")
	flag.StringVar(&o.shardSelf, "shard-self", "", "this worker's name in the fleet shard map (empty: standalone, no ownership checks)")
	flag.StringVar(&o.shards, "shards", "", "fleet membership as name=url,... (combined with -shard-map)")
	flag.StringVar(&o.shardMap, "shard-map", "", "JSON shard-map file {\"shards\":[{\"name\":...,\"url\":...}]}; re-read on SIGHUP")
	flag.BoolVar(&o.gammaLat, "gamma-latfactor", false, "apply the latency correction factor inside the TCP window bound (reproduces the paper's worked example)")
	flag.BoolVar(&o.equipLimits, "equipment-limits", false, "model network equipment backplane limits (future-work extension)")
	flag.BoolVar(&o.measuredLat, "measured-latencies", false, "use measured backbone latencies instead of the hardcoded 2.25e-3 s (future-work extension)")
	flag.IntVar(&o.cacheSize, "forecast-cache", pilgrim.DefaultForecastCacheSize, "forecast cache capacity in distinct queries (0 disables caching)")
	flag.IntVar(&o.workers, "forecast-workers", pilgrim.DefaultForecastWorkers, "concurrent hypothesis simulations for select_fastest (1 = sequential)")
	flag.IntVar(&o.tlDepth, "timeline-depth", pilgrim.DefaultTimelineDepth, "link-state observations retained per platform timeline")
	flag.DurationVar(&o.horizon, "forecast-horizon-max", pilgrim.DefaultForecastHorizon, "how far past the newest observation at= queries may extrapolate (beyond: HTTP 400)")
	flag.IntVar(&o.maxScenarios, "max-scenarios", pilgrim.DefaultMaxScenarios, "scenarios accepted per evaluate request")
	flag.IntVar(&o.maxFanout, "max-evaluate-fanout", pilgrim.DefaultMaxEvaluateCells, "scenario×query cells accepted per evaluate request")
	dataDir := flag.String("data-dir", "", "directory for the durable registry store (empty: in-memory only, state lost on restart)")
	fsyncStr := flag.String("fsync", "interval", "WAL durability policy: always (fsync per record), interval (background fsync), never (OS page cache only)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", store.DefaultCompactEvery, "WAL records between snapshot compactions")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "concurrent simulation requests admitted (0 = unlimited)")
	flag.IntVar(&o.maxQueue, "max-queue", 64, "simulation requests allowed to wait for admission before shedding with 429 (-1 = unbounded)")
	flag.Int64Var(&o.maxBodyBytes, "max-body-bytes", pilgrim.DefaultMaxBodyBytes, "request-body cap on body-carrying endpoints (oversized: HTTP 413)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", pilgrim.DefaultDrainTimeout, "grace period for in-flight requests on SIGTERM/SIGINT")
	flag.Parse()
	o.dataDir = *dataDir

	if o.tlDepth < 1 {
		fmt.Fprintln(os.Stderr, "pilgrimd: -timeline-depth must be >= 1")
		os.Exit(2)
	}
	if o.horizon < time.Second {
		fmt.Fprintln(os.Stderr, "pilgrimd: -forecast-horizon-max must be >= 1s")
		os.Exit(2)
	}
	if o.maxScenarios < 1 || o.maxFanout < 1 {
		fmt.Fprintln(os.Stderr, "pilgrimd: -max-scenarios and -max-evaluate-fanout must be >= 1")
		os.Exit(2)
	}
	if o.snapshotEvery < 1 {
		fmt.Fprintln(os.Stderr, "pilgrimd: -snapshot-every must be >= 1")
		os.Exit(2)
	}
	if o.maxBodyBytes < 1 {
		fmt.Fprintln(os.Stderr, "pilgrimd: -max-body-bytes must be >= 1")
		os.Exit(2)
	}
	policy, err := store.ParseFsyncPolicy(*fsyncStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimd:", err)
		os.Exit(2)
	}
	o.fsync = policy

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	ref := g5k.Default()
	if o.g5kAPI != "" {
		fetched, err := g5k.Fetch(nil, o.g5kAPI)
		if err != nil {
			return fmt.Errorf("fetching reference API: %w", err)
		}
		ref = fetched
	}

	cfg := sim.DefaultConfig()
	cfg.GammaUsesLatencyFactor = o.gammaLat

	registry := pilgrim.NewRegistry()
	registry.SetTimelineDepth(o.tlDepth)
	registry.SetForecastHorizon(o.horizon)

	if o.dataDir != "" {
		w, recovered, err := store.Open(store.Options{
			Dir:          o.dataDir,
			Fsync:        o.fsync,
			CompactEvery: o.snapshotEvery,
		})
		if err != nil {
			return fmt.Errorf("opening data directory: %w", err)
		}
		if err := registry.SetStorage(w, recovered); err != nil {
			w.Close()
			return err
		}
		log.Printf("durable store %s: fsync %s, snapshot every %d records; recovered %d platforms, %d log records (%d skipped, %d torn bytes truncated)",
			o.dataDir, o.fsync, o.snapshotEvery, len(recovered.Platforms),
			w.Stats().RecoveredRecords, recovered.Skipped, recovered.TruncatedBytes)
	}
	defer registry.Close()

	for _, name := range strings.Split(o.platforms, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		dataset, variant, ok := platgen.Named(name, ref)
		if !ok {
			return fmt.Errorf("unknown platform %q in -platforms (have g5k_test, g5k_cabinets, g5k_mini)", name)
		}
		plat, err := platgen.Generate(dataset, platgen.Options{
			Variant:              variant,
			EquipmentLimits:      o.equipLimits,
			UseMeasuredLatencies: o.measuredLat,
		})
		if err != nil {
			return fmt.Errorf("generating %s: %w", name, err)
		}
		if err := registry.Add(name, pilgrim.PlatformEntry{Platform: plat, Config: cfg}); err != nil {
			return err
		}
		log.Printf("registered platform %s: %d hosts, %d links (epoch %d)",
			name, plat.NumHosts(), plat.NumLinks(), plat.Snapshot().Epoch())
	}
	if pending := registry.PendingRecoveries(); len(pending) > 0 {
		log.Printf("warning: data directory holds state for unregistered platforms %v (dropped at the next compaction)", pending)
	}

	var metrics *metrology.Registry
	if o.rrdTree != "" {
		loaded, err := metrology.LoadTree(o.rrdTree)
		if err != nil {
			return fmt.Errorf("loading RRD tree: %w", err)
		}
		metrics = loaded
		log.Printf("serving %d metrics from %s", len(metrics.Paths()), o.rrdTree)
	}

	server := pilgrim.NewServer(registry, metrics)
	if o.cacheSize != pilgrim.DefaultForecastCacheSize {
		server.SetForecastCache(o.cacheSize)
	}
	if o.workers != pilgrim.DefaultForecastWorkers {
		server.SetForecastWorkers(o.workers)
	}
	server.SetEvaluateLimits(o.maxScenarios, o.maxFanout)
	server.SetAdmission(o.maxInflight, o.maxQueue, 0)
	server.SetMaxBodyBytes(o.maxBodyBytes)

	if o.shardSelf != "" || o.shards != "" || o.shardMap != "" {
		if o.shardSelf == "" {
			return fmt.Errorf("-shards/-shard-map need -shard-self (which worker am I?)")
		}
		src := shard.Source{Flag: o.shards, File: o.shardMap}
		ring, err := loadRing(src, o.shardSelf)
		if err != nil {
			return err
		}
		table := shard.NewTable(ring)
		server.SetShardIdentity(o.shardSelf, table)
		log.Printf("shard %s of a %d-worker fleet (platforms owned elsewhere answer 421)", o.shardSelf, ring.Len())
		go watchShardMap(ctx, src, o.shardSelf, table)
	}

	admission := "unlimited"
	if o.maxInflight > 0 {
		admission = fmt.Sprintf("%d in flight / %d queued", o.maxInflight, o.maxQueue)
	}
	log.Printf("pilgrimd listening on %s (forecast cache: %d entries, %d forecast workers, timeline depth %d, horizon cap %s, evaluate limits %d scenarios / %d cells, admission %s)",
		o.addr, o.cacheSize, o.workers, o.tlDepth, o.horizon, o.maxScenarios, o.maxFanout, admission)

	err := pilgrim.Serve(ctx, o.addr, server, pilgrim.ServeOptions{DrainTimeout: o.drainTimeout})
	if ctx.Err() != nil {
		log.Printf("shutdown: drained in-flight requests, closing store")
	}
	if cerr := registry.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadRing reads the shard membership and checks this worker is in it —
// a worker that is not in its own map would 421 every request.
func loadRing(src shard.Source, self string) (*shard.Ring, error) {
	m, err := src.Load()
	if err != nil {
		return nil, err
	}
	if _, ok := m.Lookup(self); !ok {
		return nil, fmt.Errorf("-shard-self %q is not in the shard map (members: %v)", self, m.Names())
	}
	return shard.NewRing(m)
}

// watchShardMap re-reads the membership on SIGHUP and swaps the routing
// table; a failed reload keeps the current ring.
func watchShardMap(ctx context.Context, src shard.Source, self string, table *shard.Table) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	defer signal.Stop(ch)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ch:
			ring, err := loadRing(src, self)
			if err != nil {
				log.Printf("SIGHUP: shard-map reload failed, keeping current ring: %v", err)
				continue
			}
			table.Store(ring)
			log.Printf("SIGHUP: shard map reloaded (%d workers)", ring.Len())
		}
	}
}
