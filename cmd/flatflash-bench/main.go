// Command flatflash-bench regenerates the tables and figures of the
// FlatFlash paper's evaluation on the simulator.
//
// Usage:
//
//	flatflash-bench [-quick] [experiment ...]
//	flatflash-bench -list
//	flatflash-bench crashsweep [-points N] [-seed S] [-workloads fsim,txdb]
//	flatflash-bench consolidate [-tenants 1,2,4] [-mixes zipf+scan] [-seeds 1]
//	flatflash-bench fleet [-shards 1,2,4] [-rates 50000,500000] [-seeds 1]
//
// With no experiment arguments it runs everything in paper order. Use
// -quick for a fast pass with reduced sizes (same shapes, more noise).
// The crashsweep subcommand runs the crash-consistency harness and exits
// non-zero if any recovery invariant is violated. The consolidate
// subcommand sweeps multi-tenant consolidation runs and reports per-tenant
// slowdown and fairness. The fleet subcommand sweeps sharded fleets under
// open-loop load and reports shed rate, p99 and shard-load fairness.
// Independent simulations and grid points run on GOMAXPROCS goroutines;
// every report is byte-identical whatever GOMAXPROCS is.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/crashsweep"
	"flatflash/internal/experiments"
	"flatflash/internal/fault"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/obsflags"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// subcommands maps each subcommand to its one-line summary, shown by -list,
// by top-level usage, and when a subcommand gets bad arguments.
var subcommands = []struct{ name, summary string }{
	{"crashsweep", "seeded crash-consistency sweep; exits non-zero on recovery violations"},
	{"consolidate", "multi-tenant consolidation sweep: per-tenant slowdown, fairness, DRAM budgets"},
	{"fleet", "sharded multi-device sweep under open-loop load: shed rate, p99, fairness"},
}

// experimentFlags are the telemetry flags the experiment runs honor.
const experimentFlags = obsflags.Trace | obsflags.Metrics | obsflags.Latency |
	obsflags.Flight | obsflags.SLO | obsflags.MapCache

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: flatflash-bench [flags] [experiment ...]\n")
	fmt.Fprintf(flag.CommandLine.Output(), "       flatflash-bench <subcommand> [flags]\n\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "crashsweep":
			runCrashsweep(os.Args[2:])
			return
		case "consolidate":
			runConsolidate(os.Args[2:])
			return
		case "fleet":
			runFleet(os.Args[2:])
			return
		}
	}
	quick := flag.Bool("quick", false, "run with reduced sizes (faster, noisier)")
	list := flag.Bool("list", false, "list available experiments and subcommands, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the runs to this file")
	obs := obsflags.Register(flag.CommandLine, experimentFlags)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}

	if *list {
		for _, d := range experiments.Describe() {
			fmt.Println(d)
		}
		fmt.Println()
		for _, sc := range subcommands {
			fmt.Printf("%-8s subcommand: %s\n", sc.name, sc.summary)
		}
		return
	}

	// Telemetry is attached to every hierarchy the experiments build. The
	// hierarchies run on independent virtual clocks, so the shared trace
	// overlays their timelines; gauge names are deduplicated per instance.
	// Latency attribution and the flight recorder attach to every FlatFlash
	// hierarchy; the consolidate sweep additionally gets per-point
	// attribution engines rendered in its report.
	obs.Build(false)
	experiments.SetTelemetry(obs.Tracer, obs.Registry)
	experiments.SetAttribution(obs.Attribution, obs.Recorder)
	experiments.SetMapCache(obs.MapCache)

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	warnFleetIgnores(os.Stderr, ids, obs)
	for _, id := range ids {
		if err := experiments.Run(os.Stdout, id, scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	obs.Registry.Finish(obs.Registry.LastObserved())
	check(obs.WriteTrace(os.Stdout))
	check(obs.WriteMetrics(os.Stdout))
	check(obs.WriteLatency(os.Stdout, obs.Attribution))
	check(obs.WriteFlight(os.Stdout))
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC() // settle the heap so the profile shows live allocations
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

// warnFleetIgnores prints one line to w naming the set telemetry flags that
// the fleet experiment, when it is among ids, does not read: its shards
// build their own attribution engines under their own SLO on devices of
// their own configuration, and no tracer or registry reaches them. Of the
// telemetry flags only -flight-out reaches it.
func warnFleetIgnores(w io.Writer, ids []string, obs *obsflags.Flags) {
	if !slices.Contains(ids, "fleet") {
		return
	}
	var ignored []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-trace-out", obs.TraceOut != ""},
		{"-metrics-out", obs.MetricsOut != ""},
		{"-latency-out", obs.LatencyOut != ""},
		{"-slo", obs.SLO != 0},
		{"-map-cache", obs.MapCache != 0},
	} {
		if f.set {
			ignored = append(ignored, f.name)
		}
	}
	if len(ignored) > 0 {
		fmt.Fprintf(w, "flatflash-bench: the fleet experiment ignores %s\n", strings.Join(ignored, ", "))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-bench:", err)
		os.Exit(1)
	}
}

// subUsage prints the subcommand's one-line summary above its flag defaults,
// so bad arguments surface what the subcommand is for, not just its flags.
func subUsage(fs *flag.FlagSet, name string) {
	fs.Usage = func() {
		for _, sc := range subcommands {
			if sc.name == name {
				fmt.Fprintf(fs.Output(), "usage: flatflash-bench %s [flags]\n%s\n\nflags:\n", name, sc.summary)
			}
		}
		fs.PrintDefaults()
	}
}

// runConsolidate executes the multi-tenant consolidation sweep: for each
// (tenant count, mix spec, seed) grid point, every tenant is measured solo on
// a private device and then consolidated on the shared one. The report is
// byte-identical for a fixed grid and seed set, whatever GOMAXPROCS is.
func runConsolidate(args []string) {
	fs := flag.NewFlagSet("consolidate", flag.ExitOnError)
	var (
		tenants = fs.String("tenants", "1,2,4", "comma-separated tenant counts")
		mixes   = fs.String("mixes", "zipf+uniform+ycsb-b+txlog", "comma-separated mix specs; '+' cycles mixes across a point's tenants")
		seeds   = fs.String("seeds", "1", "comma-separated sweep seeds (same grid+seeds => byte-identical report)")
		ops     = fs.Int("ops", 500, "operations per tenant")
		region  = fs.Uint64("region", 256<<10, "mapped region bytes per tenant")
		think   = fs.Duration("think", time.Microsecond, "virtual think time between a tenant's operations")
		noArb   = fs.Bool("no-arbiter", false, "disable the DRAM-budget arbiter (unmanaged frame contention)")
		obs     = obsflags.Register(fs, obsflags.Latency|obsflags.Flight|obsflags.SLO|obsflags.MapCache)
	)
	subUsage(fs, "consolidate")
	check(fs.Parse(args))
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	tenantCounts, err := parseInts(*tenants)
	badArgs(fs, err)
	seedList, err := parseUints(*seeds)
	badArgs(fs, err)
	dev := obs.MapDevice(mtsim.DefaultDeviceConfig())
	obs.BuildRecorder()
	base := mtsim.Config{
		Device:         &dev,
		DisableArbiter: *noArb,
		Attrib:         obs.AttribEnabled(),
		SLO:            obs.SLODur(),
		Flight:         obs.Recorder,
	}
	tenant := mtsim.TenantSpec{Ops: *ops, RegionBytes: *region, Think: sim.Duration(think.Nanoseconds())}
	res, err := mtsim.Sweep(base, tenant, tenantCounts, strings.Split(*mixes, ","), seedList)
	badArgs(fs, err)
	check(res.Write(os.Stdout))
	// Each grid point carries a private attribution engine.
	var atts []*telemetry.Attribution
	for i := range res.Points {
		atts = append(atts, res.Points[i].Res.Attribution)
	}
	check(obs.WriteLatency(nil, atts...))
	check(obs.WriteFlight(os.Stdout))
}

// runFleet executes the sharded fleet sweep: for each (shard count, offered
// rate, seed) grid point, M devices behind a consistent-hash ring absorb
// open-loop Poisson traffic with SLO-aware admission control. The report is
// byte-identical for a fixed grid and seed set, whatever GOMAXPROCS is.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	var (
		// Per-shard device geometry; the defaults match flatflash-sim's, so a
		// 1-shard fleet and a flatflash-sim -openloop run with the same seed
		// and region print byte-identical device lines.
		ssd      = fs.Uint64("ssd", 256<<20, "per-shard SSD capacity in bytes")
		dram     = fs.Uint64("dram", 4<<20, "per-shard host DRAM in bytes")
		shards   = fs.String("shards", "1,2,4", "comma-separated shard (device) counts")
		rates    = fs.String("rates", "50000,500000,2000000", "comma-separated offered arrival rates (ops/s)")
		seeds    = fs.String("seeds", "1", "comma-separated arrival seeds (same grid+seeds => byte-identical report)")
		mix      = fs.String("mix", "zipf", "mix spec; '+' interleaves mixes across clients")
		clients  = fs.Uint64("clients", 1<<20, "simulated client population")
		amp      = fs.Float64("amp", 0.4, "diurnal modulation amplitude in [0,1)")
		period   = fs.Duration("period", 10*time.Millisecond, "diurnal period in virtual time")
		ops      = fs.Int("ops", 5000, "total arrivals per grid point")
		region   = fs.Uint64("region", 1<<20, "global address-space bytes sharded across the fleet")
		qdepth   = fs.Int("qdepth", 0, "per-shard queue depth bound (0 = default)")
		batch    = fs.Int("batch", 0, "MMIO doorbell batch size (0 = default)")
		issue    = fs.Duration("issue-overhead", 300*time.Nanosecond, "per-batch doorbell cost")
		vnodes   = fs.Int("vnodes", 0, "ring vnodes per shard (0 = default)")
		ringSeed = fs.Uint64("ring-seed", 0, "consistent-hash ring placement seed")
		mEpoch   = fs.Duration("migrate-epoch", 0, "cross-shard migration epoch (0 disables migration)")
		mPages   = fs.Int("migrate-pages", 0, "max pages migrated per shard per epoch (0 = default)")
		mLat     = fs.Duration("migrate-lat", 0, "per-page migration copy cost (0 = default)")
		obs      = obsflags.Register(fs, obsflags.Latency|obsflags.Flight|obsflags.SLO|obsflags.ShedWait|obsflags.MapCache)
	)
	subUsage(fs, "fleet")
	check(fs.Parse(args))
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	shardCounts, err := parseInts(*shards)
	badArgs(fs, err)
	rateList, err := parseFloats(*rates)
	badArgs(fs, err)
	seedList, err := parseUints(*seeds)
	badArgs(fs, err)
	dev := obs.MapDevice(core.DefaultConfig(*ssd, *dram))
	obs.BuildRecorder()
	base := fleet.Config{
		VNodes:   *vnodes,
		RingSeed: *ringSeed,
		Device:   &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:       *mix,
			DiurnalAmp:    *amp,
			DiurnalPeriod: sim.Duration(period.Nanoseconds()),
			Clients:       *clients,
			RegionBytes:   *region,
			Ops:           *ops,
		},
		Server: mtsim.ServerOptions{
			QueueDepth:    *qdepth,
			Batch:         *batch,
			IssueOverhead: sim.Duration(issue.Nanoseconds()),
			SLO:           obs.SLODur(),
			ShedWait:      obs.ShedWaitDur(),
			Attrib:        obs.AttribEnabled(),
			Flight:        obs.Recorder,
		},
		MigrateEpoch: sim.Duration(mEpoch.Nanoseconds()),
		MigratePages: *mPages,
		MigrateLat:   sim.Duration(mLat.Nanoseconds()),
	}
	res, err := fleet.Sweep(base, shardCounts, rateList, seedList)
	badArgs(fs, err)
	check(res.Write(os.Stdout))
	// Every shard of every grid point carries a private attribution engine.
	var atts []*telemetry.Attribution
	for i := range res.Points {
		for _, s := range res.Points[i].Res.Shards {
			atts = append(atts, s.Attribution())
		}
	}
	check(obs.WriteLatency(nil, atts...))
	check(obs.WriteFlight(os.Stdout))
}

// badArgs reports err, prints fs's usage and exits 2; it is a no-op when
// err is nil. Grid parse and sweep validation errors go through it.
func badArgs(fs *flag.FlagSet, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-bench:", err)
		fs.Usage()
		os.Exit(2)
	}
}

// parseList parses every comma-separated token of csv with parse, which must
// consume the whole token: "2x" is an error, not 2.
func parseList[T any](what, csv string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(csv, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) { return parseList("integer", csv, strconv.Atoi) }

func parseFloats(csv string) ([]float64, error) {
	return parseList("rate", csv, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

func parseUints(csv string) ([]uint64, error) {
	return parseList("seed", csv, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
}

// runCrashsweep executes the crash-consistency sweep harness. The defaults
// (60 points x fsim + txdb) give 120 seeded crash points per invocation.
func runCrashsweep(args []string) {
	fs := flag.NewFlagSet("crashsweep", flag.ExitOnError)
	subUsage(fs, "crashsweep")
	cfg, obs, err := parseCrashsweep(fs, args)
	badArgs(fs, err)
	rep, err := crashsweep.Run(cfg)
	check(err)
	check(rep.Write(os.Stdout))
	check(obs.WriteFlight(os.Stdout))
	if cfg.BreakRecovery {
		// Self-test mode: a sabotaged recovery that produces a clean report
		// means the harness checks nothing.
		if rep.Violations == 0 {
			fmt.Fprintln(os.Stderr, "flatflash-bench: broken recovery went UNDETECTED")
			os.Exit(1)
		}
		fmt.Printf("broken recovery detected (%d violations), harness is live\n", rep.Violations)
		return
	}
	if rep.Violations > 0 {
		fmt.Fprintf(os.Stderr, "flatflash-bench: %d crash-consistency violations\n", rep.Violations)
		os.Exit(1)
	}
}

// parseCrashsweep parses the crashsweep subcommand's flags on fs into a
// validated sweep config and the observability flags that write its flight
// dump. Stray positional arguments, an unreadable fault plan and a config
// the sweep would reject are all errors.
func parseCrashsweep(fs *flag.FlagSet, args []string) (crashsweep.Config, *obsflags.Flags, error) {
	var (
		points    = fs.Int("points", 60, "crash points per workload")
		seed      = fs.Uint64("seed", 1, "sweep seed (same seed => byte-identical report)")
		workloads = fs.String("workloads", "fsim,txdb", "comma-separated workloads to sweep")
		planPath  = fs.String("fault-plan", "", "layer extra faults from this plan file onto every crash run")
		breakRec  = fs.Bool("break-recovery", false, "sabotage recovery (test-only; the sweep must then report violations)")
		obs       = obsflags.Register(fs, obsflags.Flight|obsflags.MapCache)
	)
	if err := fs.Parse(args); err != nil {
		return crashsweep.Config{}, nil, err
	}
	if fs.NArg() > 0 {
		return crashsweep.Config{}, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	obs.BuildRecorder()
	cfg := crashsweep.Config{
		Seed:          *seed,
		Points:        *points,
		Workloads:     strings.Split(*workloads, ","),
		BreakRecovery: *breakRec,
		MapCachePages: obs.MapCache,
		Flight:        obs.Recorder,
	}
	if *planPath != "" {
		f, err := os.Open(*planPath)
		if err != nil {
			return crashsweep.Config{}, nil, err
		}
		cfg.ExtraPlan, err = fault.ParsePlan(f)
		f.Close()
		if err != nil {
			return crashsweep.Config{}, nil, err
		}
	}
	return cfg, obs, cfg.Validate()
}
