// Command flatflash-sim runs a custom workload against one of the three
// hierarchies and prints a latency histogram plus system counters. It can
// generate synthetic access patterns, record them to a trace file, and
// replay saved traces, making one-off what-if studies easy:
//
//	flatflash-sim -kind flatflash -pattern zipf -ops 50000 -wss 16MB
//	flatflash-sim -kind unifiedmmap -replay hot.trace
//	flatflash-sim -pattern rand -record rand.trace -ops 10000
//	flatflash-sim -kind flatflash -fault-plan faults.plan -ops 20000
//
// With -openloop it instead offers seeded Poisson arrivals (with an optional
// diurnal curve) to one FlatFlash device behind a bounded queue with batched
// issue and SLO-aware admission control — a one-shard fleet — and reports
// the shed rate alongside admitted-request latency:
//
//	flatflash-sim -openloop -mix zipf -rate 200000 -ops 20000 -slo 400us
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/fault"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/obsflags"
	"flatflash/internal/sim"
	"flatflash/internal/trace"
	"flatflash/internal/workload"
)

// options holds the parsed command line.
type options struct {
	kind, ssd, dram, wss, pattern, record, replay, faultPlan, mix string
	ops, size, qdepth, batch                                      int
	writes, rate, amp                                             float64
	seed, clients                                                 uint64
	period, issue                                                 time.Duration
	openloop                                                      bool
	obs                                                           *obsflags.Flags
}

// modeOnly lists, by -openloop value, the flags only that mode reads.
// Setting one in the other mode is a usage error.
var modeOnly = map[bool][]string{
	false: {"kind", "pattern", "size", "writes", "record", "replay", "fault-plan",
		"trace-out", "metrics-out", "metrics-epoch"},
	true: {"mix", "rate", "clients", "amp", "period", "qdepth", "batch", "issue-overhead", "shed-wait"},
}

// parse declares the flags on fs and parses args. A stray argument, or a
// flag set explicitly that the selected mode does not read, is an error.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.kind, "kind", "flatflash", "hierarchy: flatflash | unifiedmmap | traditional")
	fs.StringVar(&o.ssd, "ssd", "256MB", "SSD capacity")
	fs.StringVar(&o.dram, "dram", "4MB", "host DRAM")
	fs.StringVar(&o.wss, "wss", "32MB", "working-set (mapped region) size")
	fs.StringVar(&o.pattern, "pattern", "zipf", "access pattern: seq | rand | zipf | stride")
	fs.IntVar(&o.ops, "ops", 20000, "number of accesses")
	fs.IntVar(&o.size, "size", 64, "bytes per access")
	fs.Float64Var(&o.writes, "writes", 0.05, "fraction of accesses that are writes")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.record, "record", "", "write the generated trace to this file")
	fs.StringVar(&o.replay, "replay", "", "replay a trace file instead of generating")
	fs.StringVar(&o.faultPlan, "fault-plan", "", "inject faults from this plan file (flatflash only); the replay recovers and rides through crashes")

	fs.BoolVar(&o.openloop, "openloop", false, "open-loop mode: Poisson arrivals with admission control instead of trace replay")
	fs.StringVar(&o.mix, "mix", "zipf", "open-loop mix spec; '+' interleaves mixes across clients")
	fs.Float64Var(&o.rate, "rate", 100000, "open-loop offered arrival rate (ops/s)")
	fs.Uint64Var(&o.clients, "clients", 1<<20, "open-loop simulated client population")
	fs.Float64Var(&o.amp, "amp", 0, "open-loop diurnal modulation amplitude in [0,1)")
	fs.DurationVar(&o.period, "period", 10*time.Millisecond, "open-loop diurnal period in virtual time")
	fs.IntVar(&o.qdepth, "qdepth", 0, "open-loop queue depth bound (0 = default)")
	fs.IntVar(&o.batch, "batch", 0, "open-loop MMIO doorbell batch size (0 = default)")
	fs.DurationVar(&o.issue, "issue-overhead", 300*time.Nanosecond, "open-loop per-batch doorbell cost")

	o.obs = obsflags.Register(fs, obsflags.Trace|obsflags.Metrics|obsflags.Latency|obsflags.Flight|
		obsflags.SLO|obsflags.ShedWait|obsflags.MapCache)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(modeOnly[!o.openloop], f.Name) {
			err = fmt.Errorf("-%s is not read with -openloop=%v", f.Name, o.openloop)
		}
	})
	return o, err
}

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-sim:", err)
		flag.Usage()
		os.Exit(2)
	}
	ssdB, err := parseSize(o.ssd)
	check(err)
	dramB, err := parseSize(o.dram)
	check(err)
	wssB, err := parseSize(o.wss)
	check(err)
	dev := o.obs.MapDevice(core.DefaultConfig(ssdB, dramB))
	if o.openloop {
		runOpenLoop(o, dev, wssB)
	} else {
		runReplay(o, dev, wssB)
	}
}

// runOpenLoop offers seeded arrivals to one device behind an admission
// controlled queue: a one-shard fleet.
func runOpenLoop(o *options, dev core.Config, wssB uint64) {
	obs := o.obs
	obs.BuildRecorder()
	cfg := fleet.Config{
		Shards: 1,
		Device: &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:       o.mix,
			Rate:          o.rate,
			DiurnalAmp:    o.amp,
			DiurnalPeriod: sim.Duration(o.period.Nanoseconds()),
			Clients:       o.clients,
			RegionBytes:   wssB,
			Ops:           o.ops,
			Seed:          o.seed,
		},
		Server: mtsim.ServerOptions{
			QueueDepth:    o.qdepth,
			Batch:         o.batch,
			IssueOverhead: sim.Duration(o.issue.Nanoseconds()),
			SLO:           obs.SLODur(),
			ShedWait:      obs.ShedWaitDur(),
			Attrib:        obs.AttribEnabled(),
			Flight:        obs.Recorder,
		},
	}
	res, err := fleet.Run(cfg)
	check(err)
	a, srv := cfg.Arrivals, res.Shards[0]
	fmt.Printf("openloop mix=%s ops=%d rate=%.1f clients=%d amp=%.2f seed=%d slo_ns=%d\n",
		a.MixSpec, a.Ops, a.Rate, a.Clients, a.DiurnalAmp, a.Seed, int64(cfg.Server.SLO))
	check(srv.WriteReport(os.Stdout, 0))
	check(obs.WriteLatency(os.Stdout, srv.Attribution()))
	check(obs.WriteFlight(os.Stdout))
}

// kindAliases maps -kind's short spellings to hierarchy names; core.New
// takes the full names in any letter case.
var kindAliases = map[string]string{
	"ff":          "FlatFlash",
	"um":          "UnifiedMMap",
	"ts":          "TraditionalStack",
	"traditional": "TraditionalStack",
}

// runReplay generates (or loads) a trace and replays it on one hierarchy.
func runReplay(o *options, cfg core.Config, wssB uint64) {
	name := o.kind
	if full, ok := kindAliases[strings.ToLower(name)]; ok {
		name = full
	}
	h, err := core.New(name, cfg)
	check(err)

	// Fault injection, latency attribution and the flight recorder target
	// the FlatFlash hierarchy's component boundaries; the baselines don't
	// model them. The registry always runs: it feeds the virtual-time
	// summary.
	obs := o.obs
	obs.Build(true)
	ff, isFF := h.(*core.FlatFlash)
	if !isFF && (o.faultPlan != "" || obs.Attribution != nil || obs.Recorder != nil) {
		check(fmt.Errorf("-fault-plan/-latency-out/-flight-out/-slo require -kind flatflash, not %q", o.kind))
	}
	var faults *fault.Engine
	if o.faultPlan != "" {
		f, err := os.Open(o.faultPlan)
		check(err)
		plan, err := fault.ParsePlan(f)
		f.Close()
		check(err)
		faults, err = fault.NewEngine(plan, o.seed)
		check(err)
		ff.SetFaults(faults)
	}
	if isFF {
		ff.SetFlightRecorder(obs.Recorder)
		ff.SetAttribution(obs.Attribution)
	}
	h.Instrument(obs.Tracer, obs.Registry)

	var t trace.Trace
	if o.replay != "" {
		f, err := os.Open(o.replay)
		check(err)
		t, err = trace.Parse(f)
		f.Close()
		check(err)
	} else {
		t, err = trace.Generate(trace.GenConfig{
			Pattern:    trace.Pattern(o.pattern),
			Ops:        o.ops,
			AccessSize: o.size,
			Extent:     wssB,
			WriteFrac:  o.writes,
			Seed:       o.seed,
		})
		check(err)
	}
	if o.record != "" {
		f, err := os.Create(o.record)
		check(err)
		_, err = t.WriteTo(f)
		check(err)
		check(f.Close())
		fmt.Printf("recorded %d ops to %s\n", len(t), o.record)
	}

	region, err := h.Mmap(wssB)
	check(err)
	var res trace.Result
	if faults != nil {
		var crashes int
		res, crashes, err = trace.ReplayCrashAware(h, region, t)
		check(err)
		st := faults.Stats()
		fmt.Printf("faults: survived %d crashes (fired=%d nand=%d/%d mmio=%d/%d battery=%d)\n",
			crashes, st.CrashesFired, st.ProgramFailures, st.EraseFailures,
			st.MMIODropped, st.MMIOTorn, st.BatteryTruncated)
	} else {
		res, err = trace.Replay(h, region, t)
		check(err)
	}
	reg := obs.Registry
	reg.Finish(h.Now())

	fmt.Printf("system=%s ops=%d elapsed=%v\n", h.Name(), res.Ops, res.Elapsed)
	fmt.Printf("latency: mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		res.Hist.Mean(), res.Hist.Percentile(50), res.Hist.Percentile(90),
		res.Hist.Percentile(99), res.Hist.Percentile(99.9), res.Hist.Max())
	vsec := reg.Elapsed().Seconds()
	opsPerVS := 0.0
	if vsec > 0 {
		opsPerVS = float64(reg.Get("accesses")) / vsec
	}
	fmt.Printf("virtual: duration=%v ops/vsec=%.0f epochs=%d\n",
		reg.Elapsed(), opsPerVS, len(reg.Rows()))
	c := h.Counters()
	fmt.Println("counters:")
	for _, kv := range c.Snapshot() {
		fmt.Printf("  %-26s %d\n", kv.Name, kv.Value)
	}

	obs.Attribution.Finish(h.Now())
	check(obs.WriteLatency(os.Stdout, obs.Attribution))
	check(obs.WriteFlight(os.Stdout))
	check(obs.WriteTrace(os.Stdout))
	check(obs.WriteMetrics(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-sim:", err)
		os.Exit(1)
	}
}

// parseSize parses "64", "64KB", "4MB", "1GB".
func parseSize(s string) (uint64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
