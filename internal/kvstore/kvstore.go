// Package kvstore implements the Redis-style in-memory key-value store of
// §5.4: fixed-size records living in a mapped region of the unified
// memory-storage hierarchy, driven by YCSB workloads B and D, measuring
// average and 99th-percentile operation latency — the paper's Figures 11
// and 12.
package kvstore

import (
	"encoding/binary"
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/workload"
)

// RecordSize matches the paper's 64-byte key-value pairs.
const RecordSize = 64

// Config parameterizes a YCSB run against the store.
type Config struct {
	Records  uint64 // initial record count
	Ops      int    // operations to run
	Workload byte   // 'B' or 'D'
	Seed     uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Records == 0 || c.Ops <= 0 {
		return fmt.Errorf("kvstore: Records %d Ops %d", c.Records, c.Ops)
	}
	if c.Workload != 'B' && c.Workload != 'D' {
		return fmt.Errorf("kvstore: workload %q", c.Workload)
	}
	return nil
}

// Result reports a run.
type Result struct {
	Avg           sim.Duration
	P50           sim.Duration
	P99           sim.Duration
	Hist          *stats.Histogram
	PageMovements int64
	HitRatio      float64 // SSD-Cache hit ratio (FlatFlash only; 0 otherwise)
}

// Store is the key-value store: record i lives at offset i*RecordSize of a
// region of the hierarchy. The index is implicit (dense keys), mirroring
// how the paper's Redis run stores 64 B values keyed by integer.
type Store struct {
	h      core.Hierarchy
	region core.Region
	slots  uint64
}

// Open creates a store with capacity for slots records.
func Open(h core.Hierarchy, slots uint64) (*Store, error) {
	r, err := h.Mmap(slots * RecordSize)
	if err != nil {
		return nil, err
	}
	return &Store{h: h, region: r, slots: slots}, nil
}

// Get reads record key into buf (RecordSize bytes).
func (s *Store) Get(key uint64, buf []byte) (sim.Duration, error) {
	if key >= s.slots {
		return 0, core.ErrOutOfRange
	}
	return s.h.Read(s.region.Base+key*RecordSize, buf[:RecordSize])
}

// Put writes record key.
func (s *Store) Put(key uint64, val []byte) (sim.Duration, error) {
	if key >= s.slots {
		return 0, core.ErrOutOfRange
	}
	return s.h.Write(s.region.Base+key*RecordSize, val[:RecordSize])
}

// Load bulk-populates records [0, n) with a deterministic pattern.
func (s *Store) Load(n uint64) error {
	var rec [RecordSize]byte
	for k := uint64(0); k < n; k++ {
		binary.LittleEndian.PutUint64(rec[:], k^0xDEADBEEF)
		if _, err := s.Put(k, rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// Run executes a YCSB workload against hierarchy h and reports latency
// percentiles.
func Run(h core.Hierarchy, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var grow uint64
	if cfg.Workload == 'D' {
		// Headroom for inserts, which are ~5% of ops.
		grow = uint64(cfg.Ops/10) + 16
	}
	st, err := Open(h, cfg.Records+grow)
	if err != nil {
		return Result{}, err
	}
	if err := st.Load(cfg.Records); err != nil {
		return Result{}, err
	}
	gen := workload.NewYCSB(cfg.Workload, sim.NewRNG(cfg.Seed), cfg.Records, workload.DefaultZipfTheta)
	hist := stats.NewHistogram()
	var rec [RecordSize]byte
	moved0 := h.Counters().Get("page_movements")
	for i := 0; i < cfg.Ops; i++ {
		op := gen.Next()
		if op.Key >= st.slots {
			break // workload D outgrew the region; stop cleanly
		}
		var lat sim.Duration
		switch op.Kind {
		case workload.OpRead:
			lat, err = st.Get(op.Key, rec[:])
		case workload.OpUpdate, workload.OpInsert:
			binary.LittleEndian.PutUint64(rec[:], op.Key)
			lat, err = st.Put(op.Key, rec[:])
		}
		if err != nil {
			return Result{}, err
		}
		hist.Record(lat)
	}
	res := Result{
		Avg:           hist.Mean(),
		P50:           hist.Percentile(50),
		P99:           hist.Percentile(99),
		Hist:          hist,
		PageMovements: h.Counters().Get("page_movements") - moved0,
	}
	if ff, ok := h.(*core.FlatFlash); ok {
		res.HitRatio = ff.HitRatio()
	}
	return res, nil
}
