// Package core assembles the FlatFlash unified memory-storage hierarchy
// (§3) from the substrate packages — flash, ftl, ssdcache, promote, plb,
// pcie, dram, vm — and implements the two comparison systems from the
// paper's evaluation, TraditionalStack and UnifiedMMap, behind a common
// Hierarchy interface so every experiment drives all three identically.
package core

import (
	"errors"
	"fmt"

	"flatflash/internal/dram"
	"flatflash/internal/flash"
	"flatflash/internal/ftl"
	"flatflash/internal/pcie"
	"flatflash/internal/plb"
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/ssdcache"
	"flatflash/internal/vm"
)

// PromotionMode selects the promotion policy (the adaptive policy is the
// paper's; the others are ablations called out in DESIGN.md).
type PromotionMode int

// Promotion modes.
const (
	PromoteAdaptive PromotionMode = iota // Algorithm 1
	PromoteFixed                         // fixed threshold (FixedThreshold)
	PromoteNever                         // pure MMIO mode, no DRAM use
	PromoteAlways                        // paging-like: promote on first touch
)

// Config describes a complete hierarchy instance. The same Config builds
// FlatFlash, UnifiedMMap, and TraditionalStack so comparisons are fair.
type Config struct {
	SSDBytes  uint64 // logical SSD capacity exposed to the host
	DRAMBytes uint64 // host DRAM dedicated to the mapped region

	PageSize      int
	CacheLineSize int

	// SSD internals.
	FlashReadLatency    sim.Duration
	FlashProgramLatency sim.Duration
	FlashEraseLatency   sim.Duration
	FlashChannels       int
	PagesPerBlock       int
	OverprovisionPct    float64 // extra physical blocks fraction

	// SSD-Cache (FlatFlash only).
	SSDCacheFraction float64 // of SSDBytes; paper default 0.125%
	SSDCacheWays     int
	SSDCachePolicy   ssdcache.ReplacementPolicy
	BatteryBacked    bool // SSD-Cache persistence domain (§3.5)

	PCIe    pcie.Config
	VM      vm.Config
	DRAMLat sim.Duration

	// HostCacheLines > 0 enables §3.1's cache-coherent interconnect model
	// (CAPI/CCIX/OpenCAPI): the CPU may cache SSD-resident lines, so
	// repeated reads of a line cost HostCacheLatency instead of an MMIO
	// round trip. 0 (the default) is plain PCIe: MMIO is uncacheable.
	HostCacheLines   int
	HostCacheLatency sim.Duration

	// Promotion.
	Promotion      PromotionMode
	PromoteParams  promote.Params
	FixedThreshold int
	PLB            plb.Config
	UsePLB         bool // ablation: false stalls the CPU for the promotion

	// MapCachePages > 0 switches the FTL to the demand-paged translation
	// map (DFTL style): translation pages live in flash and only this many
	// stay resident in the cached mapping table. 0 (the default) keeps the
	// all-in-memory map, byte-identical to pre-mapcache behavior. Applies
	// to every hierarchy built from this config, so fleet/mtsim sweeps
	// pick the mode up transparently.
	MapCachePages int
	// Deprecated: MapPipeline is ignored. The demand-paged map always
	// overlaps a write's map access with its data program and takes
	// evicted-page write-backs off the critical path (FMMU-style); the
	// field stays only because the perf harness still sets it.
	MapPipeline bool

	// Baseline-only software costs.
	FaultOverhead sim.Duration // trap + page-fault handler
	StackOverhead sim.Duration // block storage stack (TraditionalStack)
	// Fraction of DRAM frames consumed by per-layer metadata/page indexes:
	// TraditionalStack keeps three separate indirection layers, UnifiedMMap
	// one merged layer (§5.2's "more available DRAM" observation).
	MetaOverheadTraditional float64
	MetaOverheadUnified     float64
}

// DefaultConfig returns the paper's parameters for a hierarchy with the
// given SSD and DRAM sizes. Capacities are the simulator-scale values
// (paper GB -> simulator MB; ratios preserved).
func DefaultConfig(ssdBytes, dramBytes uint64) Config {
	return Config{
		SSDBytes:  ssdBytes,
		DRAMBytes: dramBytes,

		PageSize:      4096,
		CacheLineSize: 64,

		FlashReadLatency:    sim.Micros(20),
		FlashProgramLatency: sim.Micros(20),
		FlashEraseLatency:   sim.Micros(100),
		FlashChannels:       8,
		PagesPerBlock:       64,
		OverprovisionPct:    0.125,

		SSDCacheFraction: 0.00125, // 0.125% of SSD capacity (§5)
		SSDCacheWays:     ssdcache.DefaultWays,
		SSDCachePolicy:   ssdcache.RRIP,
		BatteryBacked:    true,

		PCIe:    pcie.DefaultConfig(),
		VM:      vm.DefaultConfig(),
		DRAMLat: dram.DefaultAccessLatency,

		HostCacheLines:   0, // plain PCIe MMIO (uncacheable) by default
		HostCacheLatency: 30 * sim.Nanosecond,

		Promotion:      PromoteAdaptive,
		PromoteParams:  promote.DefaultParams(),
		FixedThreshold: 4,
		PLB:            plb.DefaultConfig(),
		UsePLB:         true,

		FaultOverhead:           sim.Micros(8),
		StackOverhead:           sim.Micros(25),
		MetaOverheadTraditional: 0.10,
		MetaOverheadUnified:     0.02,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0 || c.CacheLineSize <= 0 || c.PageSize%c.CacheLineSize != 0:
		return fmt.Errorf("core: PageSize %d / CacheLineSize %d", c.PageSize, c.CacheLineSize)
	case c.SSDBytes < uint64(c.PageSize):
		return errors.New("core: SSD smaller than one page")
	case c.DRAMBytes < uint64(c.PageSize):
		return errors.New("core: DRAM smaller than one page")
	case c.SSDCacheFraction <= 0 || c.SSDCacheFraction > 0.5:
		return fmt.Errorf("core: SSDCacheFraction %f", c.SSDCacheFraction)
	case c.OverprovisionPct <= 0:
		return errors.New("core: OverprovisionPct must be positive")
	case c.MetaOverheadTraditional < 0 || c.MetaOverheadTraditional >= 1,
		c.MetaOverheadUnified < 0 || c.MetaOverheadUnified >= 1:
		return errors.New("core: metadata overheads must be in [0,1)")
	case c.MapCachePages < 0:
		return fmt.Errorf("core: MapCachePages %d", c.MapCachePages)
	}
	return nil
}

// ssdPages returns the logical page count of the SSD region.
func (c Config) ssdPages() int { return int(c.SSDBytes / uint64(c.PageSize)) }

// dramFrames returns the page-frame count of host DRAM after subtracting
// metadata overhead fraction meta.
func (c Config) dramFrames(meta float64) int {
	f := int(float64(c.DRAMBytes/uint64(c.PageSize)) * (1 - meta))
	if f < 1 {
		f = 1
	}
	return f
}

// BuildFTL constructs the FTL this configuration implies, with optional
// wear-aware GC victim selection. The hierarchies use the default (greedy)
// policy; the ablation harness builds both.
func (c Config) BuildFTL(wearLeveling bool) (*ftl.FTL, error) {
	f, err := c.buildFTL()
	if err != nil {
		return nil, err
	}
	if wearLeveling {
		fc := f.Config()
		fc.WearLeveling = true
		return ftl.New(fc)
	}
	return f, nil
}

// buildFTL constructs the FTL sized so its logical capacity covers the SSD
// region, with OverprovisionPct extra physical blocks.
func (c Config) buildFTL() (*ftl.FTL, error) {
	pagesNeeded := c.ssdPages()
	ppb := c.PagesPerBlock
	logicalBlocks := (pagesNeeded + ppb - 1) / ppb
	op := int(float64(logicalBlocks) * c.OverprovisionPct)
	if op < 2 {
		op = 2
	}
	fc := flash.Config{
		PageSize:       c.PageSize,
		PagesPerBlock:  ppb,
		Blocks:         logicalBlocks + op,
		Channels:       c.FlashChannels,
		ReadLatency:    c.FlashReadLatency,
		ProgramLatency: c.FlashProgramLatency,
		EraseLatency:   c.FlashEraseLatency,
	}
	return ftl.New(ftl.Config{
		Flash:               fc,
		OverprovisionBlocks: op,
		GCFreeBlocksLow:     2,
		MapCachePages:       c.MapCachePages,
	})
}

// buildVM constructs the address space covering the SSD region.
func (c Config) buildVM() (*vm.AddressSpace, error) {
	vc := c.VM
	vc.PageSize = c.PageSize
	return vm.New(vc, c.ssdPages())
}
