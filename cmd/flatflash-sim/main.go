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
	"strconv"
	"strings"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/fault"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/obsflags"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/trace"
	"flatflash/internal/workload"
)

func main() {
	var (
		kind      = flag.String("kind", "flatflash", "hierarchy: flatflash | unifiedmmap | traditional")
		ssd       = flag.String("ssd", "256MB", "SSD capacity")
		dram      = flag.String("dram", "4MB", "host DRAM")
		wss       = flag.String("wss", "32MB", "working-set (mapped region) size")
		pattern   = flag.String("pattern", "zipf", "access pattern: seq | rand | zipf | stride")
		ops       = flag.Int("ops", 20000, "number of accesses")
		size      = flag.Int("size", 64, "bytes per access")
		writeFrac = flag.Float64("writes", 0.05, "fraction of accesses that are writes")
		seed      = flag.Uint64("seed", 1, "workload seed")
		record    = flag.String("record", "", "write the generated trace to this file")
		replay    = flag.String("replay", "", "replay a trace file instead of generating")
		faultPlan = flag.String("fault-plan", "", "inject faults from this plan file (flatflash only); the replay recovers and rides through crashes")

		openloop = flag.Bool("openloop", false, "open-loop mode: Poisson arrivals with admission control instead of trace replay")
		mix      = flag.String("mix", "zipf", "open-loop mix spec; '+' interleaves mixes across clients")
		rate     = flag.Float64("rate", 100000, "open-loop offered arrival rate (ops/s)")
		clients  = flag.Uint64("clients", 1<<20, "open-loop simulated client population")
		amp      = flag.Float64("amp", 0, "open-loop diurnal modulation amplitude in [0,1)")
		period   = flag.Duration("period", 10*time.Millisecond, "open-loop diurnal period in virtual time")
		qdepth   = flag.Int("qdepth", 0, "open-loop queue depth bound (0 = default)")
		batch    = flag.Int("batch", 0, "open-loop MMIO doorbell batch size (0 = default)")
		issue    = flag.Duration("issue-overhead", 300*time.Nanosecond, "open-loop per-batch doorbell cost")

		traceOut   = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
		metricsOut = flag.String("metrics-out", "", "write epoch-sampled metrics as JSON Lines")
		metricsEp  = flag.Duration("metrics-epoch", time.Millisecond, "virtual-time metrics sampling epoch")
		obs        = obsflags.RegisterOpenLoop(flag.CommandLine)
	)
	flag.Parse()

	ssdB, err := parseSize(*ssd)
	check(err)
	dramB, err := parseSize(*dram)
	check(err)
	wssB, err := parseSize(*wss)
	check(err)

	if *openloop {
		dev := core.DefaultConfig(ssdB, dramB)
		dev.MapCachePages = *obs.MapCache
		dev.MapPipeline = *obs.MapCache > 0
		cfg := fleet.Config{
			Shards: 1,
			Device: &dev,
			Arrivals: workload.ArrivalConfig{
				MixSpec:       *mix,
				Rate:          *rate,
				DiurnalAmp:    *amp,
				DiurnalPeriod: sim.Duration(period.Nanoseconds()),
				Clients:       *clients,
				RegionBytes:   wssB,
				Ops:           *ops,
				Seed:          *seed,
			},
			Server: mtsim.ServerOptions{
				QueueDepth:    *qdepth,
				Batch:         *batch,
				IssueOverhead: sim.Duration(issue.Nanoseconds()),
				SLO:           obs.SLODur(),
				ShedWait:      obs.ShedWaitDur(),
				Attrib:        obs.AttribEnabled(),
			},
		}
		var flightRec *telemetry.FlightRecorder
		if obs.FlightEnabled() {
			flightRec = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
			cfg.Server.Flight = flightRec
		}
		res, err := fleet.Run(cfg)
		check(err)
		a, srv := cfg.Arrivals, res.Shards[0]
		fmt.Printf("openloop mix=%s ops=%d rate=%.1f clients=%d amp=%.2f seed=%d slo_ns=%d\n",
			a.MixSpec, a.Ops, a.Rate, a.Clients, a.DiurnalAmp, a.Seed, int64(cfg.Server.SLO))
		check(srv.WriteReport(os.Stdout, 0))
		att := srv.Attribution()
		if att != nil {
			check(att.WriteBudget(os.Stdout))
		}
		check(obs.WriteLatency(att, os.Stdout))
		check(obs.WriteFlight(flightRec, os.Stdout))
		return
	}

	cfg := core.DefaultConfig(ssdB, dramB)
	cfg.MapCachePages = *obs.MapCache
	cfg.MapPipeline = *obs.MapCache > 0
	var h core.Hierarchy
	switch strings.ToLower(*kind) {
	case "flatflash", "ff":
		h, err = core.NewFlatFlash(cfg)
	case "unifiedmmap", "um":
		h, err = core.NewUnifiedMMap(cfg)
	case "traditional", "traditionalstack", "ts":
		h, err = core.NewTraditionalStack(cfg)
	default:
		check(fmt.Errorf("unknown kind %q", *kind))
	}
	check(err)

	// Fault injection targets the FlatFlash hierarchy's device boundaries;
	// the baselines don't model them.
	var faults *fault.Engine
	if *faultPlan != "" {
		ff, ok := h.(*core.FlatFlash)
		if !ok {
			check(fmt.Errorf("-fault-plan requires -kind flatflash, not %q", *kind))
		}
		f, err := os.Open(*faultPlan)
		check(err)
		plan, err := fault.ParsePlan(f)
		f.Close()
		check(err)
		faults, err = fault.NewEngine(plan, *seed)
		check(err)
		ff.SetFaults(faults)
	}

	// Telemetry: the registry always runs (it feeds the ops/virtual-second
	// summary); the span tracer only when a trace file was requested. The
	// tracer stays nil otherwise, keeping the access path allocation-free.
	reg := telemetry.NewRegistry(sim.Duration(metricsEp.Nanoseconds()))
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(telemetry.DefaultTracerCapacity)
	}
	// Latency attribution and the flight recorder target the FlatFlash
	// hierarchy's component boundaries; the baselines don't model them.
	att, flightRec := obs.Build()
	if att != nil || flightRec != nil {
		ff, ok := h.(*core.FlatFlash)
		if !ok {
			check(fmt.Errorf("-latency-out/-flight-out/-slo require -kind flatflash, not %q", *kind))
		}
		ff.SetFlightRecorder(flightRec)
		ff.SetAttribution(att)
	}
	h.Instrument(tracer, reg)

	var t trace.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		check(err)
		t, err = trace.Parse(f)
		f.Close()
		check(err)
	} else {
		t, err = trace.Generate(trace.GenConfig{
			Pattern:    trace.Pattern(*pattern),
			Ops:        *ops,
			AccessSize: *size,
			Extent:     wssB,
			WriteFrac:  *writeFrac,
			Seed:       *seed,
		})
		check(err)
	}
	if *record != "" {
		f, err := os.Create(*record)
		check(err)
		_, err = t.WriteTo(f)
		check(err)
		check(f.Close())
		fmt.Printf("recorded %d ops to %s\n", len(t), *record)
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

	if att != nil {
		att.Finish(h.Now())
		check(att.WriteBudget(os.Stdout))
	}
	check(obs.WriteLatency(att, os.Stdout))
	check(obs.WriteFlight(flightRec, os.Stdout))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		check(telemetry.WriteChromeTrace(f, tracer, reg))
		check(f.Close())
		fmt.Printf("trace: %d spans -> %s (load in ui.perfetto.dev)\n", tracer.Recorded(), *traceOut)
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("trace: ring overflowed, oldest %d spans dropped\n", d)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		check(err)
		check(reg.WriteJSONL(f))
		check(f.Close())
		fmt.Printf("metrics: %d epochs -> %s\n", len(reg.Rows()), *metricsOut)
	}
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
