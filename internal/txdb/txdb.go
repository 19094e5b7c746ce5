// Package txdb implements the Shore-MT-style transactional database case
// study of §3.5/§5.6: worker threads execute TPCC/TPCB/TATP-shaped
// transactions against a table region of the unified hierarchy and make
// their commits durable through write-ahead logging in one of two designs:
//
//   - Centralized: one shared log buffer protected by a lock — every commit
//     serializes on it (Figure 7a), the contention that limits scalability.
//   - PerTransaction: each transaction persists its own log record
//     concurrently (Figure 7b), the decentralized design FlatFlash's atomic
//     byte-granular persistent writes enable.
//
// Multi-threading is modeled in virtual time: each worker owns a clock;
// shared hardware (the log device) and the log lock are sim.Resources that
// serialize grants, so queueing and contention emerge naturally and
// deterministically.
package txdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

// Workload selects the transaction mix.
type Workload int

// Workloads of Figure 14.
const (
	TPCC Workload = iota
	TPCB
	TATP
)

// String returns the workload name.
func (w Workload) String() string {
	switch w {
	case TPCC:
		return "TPCC"
	case TPCB:
		return "TPCB"
	case TATP:
		return "TATP"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// profile describes a transaction shape. Log sizes are within the 64–1,424
// byte-per-transaction range the paper measured on these workloads.
type profile struct {
	reads        int
	writes       int
	logBytes     int
	readOnlyFrac float64 // fraction of transactions that skip logging
}

func profileOf(w Workload) profile {
	switch w {
	case TPCC:
		// New-order-style: wide transactions, large log records.
		return profile{reads: 10, writes: 5, logBytes: 700, readOnlyFrac: 0.08}
	case TPCB:
		// Update-intensive: account/teller/branch/history updates.
		return profile{reads: 2, writes: 4, logBytes: 250, readOnlyFrac: 0}
	default: // TATP
		// Read-mostly telecom mix.
		return profile{reads: 3, writes: 1, logBytes: 120, readOnlyFrac: 0.80}
	}
}

// LogMode selects the logging design.
type LogMode int

// Logging designs of Figure 7.
const (
	Centralized LogMode = iota
	PerTransaction
)

// String returns the mode name.
func (m LogMode) String() string {
	if m == PerTransaction {
		return "PerTransaction"
	}
	return "Centralized"
}

// RecordSize is the table record size in bytes.
const RecordSize = 128

// Config parameterizes a run.
type Config struct {
	Workload    Workload
	LogMode     LogMode
	Threads     int
	TxPerThread int
	DBBytes     uint64 // table region size
	Seed        uint64
	// FunctionalLog writes real, CRC-protected log records through the
	// hierarchy on every commit so RecoverCommitted can replay them after
	// a crash. Commit *timing* always comes from the calibrated contention
	// model; enabling this additionally pushes the record bytes through
	// the memory system, which perturbs device state, so throughput
	// experiments leave it off and recovery tests turn it on.
	FunctionalLog bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Threads <= 0 || c.TxPerThread <= 0 {
		return fmt.Errorf("txdb: Threads %d TxPerThread %d", c.Threads, c.TxPerThread)
	}
	if c.DBBytes < RecordSize*16 {
		return fmt.Errorf("txdb: DBBytes %d too small", c.DBBytes)
	}
	return nil
}

// Result reports a run.
type Result struct {
	TotalTx    int
	Elapsed    sim.Duration
	Throughput float64 // transactions per virtual second
	LogWaits   sim.Duration
}

// DB is one database instance.
type DB struct {
	h       core.Hierarchy
	cfg     Config
	prof    profile
	table   core.Region
	logSeg  core.Region // one segment per worker (per-tx) or shared (central)
	records uint64

	logLock   *sim.Resource // centralized log buffer lock
	logDevice *sim.Resource // the log storage path (occupancy model)

	logHeads []int64  // per-worker log append offsets
	logSeqs  []uint64 // per-worker next commit sequence number

	// Calibrated per-record log costs (measured once through the real
	// hierarchy so FlatFlash's byte persistence vs the baselines' block
	// persistence is reflected, then applied per transaction through the
	// contention resources).
	logLatency sim.Duration // caller-visible latency of one log persist
	logService sim.Duration // time one log persist occupies the device
}

// logSegBytes is the per-worker log segment size.
const logSegBytes = 64 << 10

// Open builds the database: the table region, per-worker log segments, and
// the calibrated logging model.
func Open(h core.Hierarchy, cfg Config) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	table, err := h.Mmap(cfg.DBBytes)
	if err != nil {
		return nil, err
	}
	logSeg, err := h.MmapPersistent(uint64(cfg.Threads) * logSegBytes)
	if err != nil {
		return nil, err
	}
	db := &DB{
		h:         h,
		cfg:       cfg,
		prof:      profileOf(cfg.Workload),
		table:     table,
		logSeg:    logSeg,
		records:   cfg.DBBytes / RecordSize,
		logLock:   sim.NewResource(),
		logDevice: sim.NewResource(),
		logHeads:  make([]int64, cfg.Threads),
		logSeqs:   make([]uint64, cfg.Threads),
	}
	for w := range db.logSeqs {
		db.logSeqs[w] = 1
	}
	if err := db.calibrateLog(); err != nil {
		return nil, err
	}
	return db, nil
}

// logRecordOverhead is the header (seq) plus trailing CRC of a log record.
const logRecordOverhead = 12

// appendLogRecord durably writes one commit record into the worker's log
// segment (real bytes: sequence number, payload, CRC). Timing is charged
// through the calibrated resource model in runTx, not here, so the record
// write itself uses the hierarchy only functionally.
func (db *DB) appendLogRecord(w int, payload int) error {
	recLen := int64(payload + logRecordOverhead)
	segBase := db.logSeg.Base + uint64(w)*logSegBytes
	if db.logHeads[w]+recLen > logSegBytes {
		db.logHeads[w] = 0 // wrap (checkpointing reclaims old records)
	}
	off := db.logHeads[w]
	rec := make([]byte, recLen)
	binary.LittleEndian.PutUint64(rec[0:], db.logSeqs[w])
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[:len(rec)-4]))
	if _, err := db.h.Write(segBase+uint64(off), rec); err != nil {
		return err
	}
	if _, err := db.h.Persist(segBase+uint64(off), len(rec)); err != nil {
		if err != core.ErrNotPersistent {
			return err
		}
		// Hierarchy without byte persistence: block path.
		if _, serr := db.h.SyncPages(segBase+uint64(off), 1+int(recLen-1)/4096); serr != nil {
			return serr
		}
	}
	db.logHeads[w] += recLen
	db.logSeqs[w]++
	return nil
}

// RecoverCommitted scans every worker's log segment after a crash and
// returns, per worker, the highest committed sequence number found (0 if
// none) — the analysis pass of ARIES-style recovery over the decentralized
// per-transaction logs.
func (db *DB) RecoverCommitted() ([]uint64, error) {
	out := make([]uint64, db.cfg.Threads)
	for w := 0; w < db.cfg.Threads; w++ {
		segBase := db.logSeg.Base + uint64(w)*logSegBytes
		recLen := int64(db.prof.logBytes + logRecordOverhead)
		rec := make([]byte, recLen)
		for off := int64(0); off+recLen <= logSegBytes; off += recLen {
			if _, err := db.h.Read(segBase+uint64(off), rec); err != nil {
				return nil, err
			}
			seq := binary.LittleEndian.Uint64(rec[0:])
			crc := binary.LittleEndian.Uint32(rec[len(rec)-4:])
			if seq == 0 || crc != crc32.ChecksumIEEE(rec[:len(rec)-4]) {
				continue // never written or torn
			}
			if seq > out[w] {
				out[w] = seq
			}
		}
	}
	return out, nil
}

// calibrateLog measures one durable log append through the real hierarchy.
func (db *DB) calibrateLog() error {
	rec := make([]byte, db.prof.logBytes)
	wLat, err := db.h.Write(db.logSeg.Base, rec)
	if err != nil {
		return err
	}
	pLat, err := db.h.Persist(db.logSeg.Base, len(rec))
	if err == core.ErrNotPersistent {
		// Baseline hierarchy: block-interface durability.
		pLat, err = db.h.SyncPages(db.logSeg.Base, 1+(db.prof.logBytes-1)/4096)
	}
	if err != nil {
		return err
	}
	db.logLatency = wLat + pLat
	if _, ok := db.h.(*core.FlatFlash); ok {
		// Byte-granular posted writes occupy the PCIe link only briefly;
		// many can be in flight (Figure 7b's concurrent log writes).
		db.logService = sim.Duration(db.prof.logBytes) * sim.Microsecond / 3200 // 3.2 GB/s
		if db.logService < sim.Microsecond/4 {
			db.logService = sim.Microsecond / 4
		}
	} else {
		// Page-granularity log writes occupy the flash write path; channel
		// parallelism divides the program time.
		db.logService = db.logLatency / 4
	}
	return nil
}

// runTx executes one transaction for a worker whose clock reads now,
// returning the worker's new clock value.
func (db *DB) runTx(now sim.Time, rng *sim.RNG, keys *workload.Zipf, wid, seq int) (sim.Time, error) {
	var rec [RecordSize]byte
	// Data phase: reads then writes at skewed-random records.
	for i := 0; i < db.prof.reads; i++ {
		k := keys.Next()
		lat, err := db.h.Read(db.table.Base+k*RecordSize, rec[:])
		if err != nil {
			return now, err
		}
		now = now.Add(lat)
	}
	readOnly := rng.Float64() < db.prof.readOnlyFrac
	if readOnly {
		return now, nil
	}
	for i := 0; i < db.prof.writes; i++ {
		k := keys.Next()
		binary.LittleEndian.PutUint64(rec[:], uint64(seq))
		lat, err := db.h.Write(db.table.Base+k*RecordSize, rec[:])
		if err != nil {
			return now, err
		}
		now = now.Add(lat)
	}
	// Commit phase: durable log append; timing from the calibrated
	// contention model so worker concurrency is honored.
	if db.cfg.FunctionalLog {
		if err := db.appendLogRecord(wid, db.prof.logBytes); err != nil {
			return now, err
		}
	}
	switch db.cfg.LogMode {
	case Centralized:
		// One shared log buffer: the lock is held for the whole persist
		// (Figure 7a's contention).
		_, done := db.logLock.Acquire(now, db.logLatency)
		db.logDevice.Acquire(now, db.logService)
		now = done
	case PerTransaction:
		// Decentralized: only the device occupancy is shared.
		start, _ := db.logDevice.Acquire(now, db.logService)
		now = start.Add(db.logLatency)
	}
	return now, nil
}

// workerStreams seeds each worker's RNG and Zipf key generator. Run and
// Stepper both start from it, which is what keeps a Stepper run
// step-for-step deterministic against Run.
func (db *DB) workerStreams() ([]*sim.RNG, []*workload.Zipf) {
	rngs := make([]*sim.RNG, db.cfg.Threads)
	gens := make([]*workload.Zipf, db.cfg.Threads)
	for w := range rngs {
		rngs[w] = sim.NewRNG(db.cfg.Seed + uint64(w)*7919)
		// TPC-style workloads show strong page-level buffer locality; the
		// paper's Shore-MT runs keep their working set largely in the 6 GB
		// buffer pool, leaving logging as the bottleneck.
		gens[w] = workload.NewZipf(rngs[w], db.records, workload.DefaultZipfTheta)
	}
	return rngs, gens
}

// Run executes the configured workload and returns throughput.
func Run(h core.Hierarchy, cfg Config) (Result, error) {
	db, err := Open(h, cfg)
	if err != nil {
		return Result{}, err
	}
	clocks := make([]sim.Time, cfg.Threads)
	rngs, gens := db.workerStreams()
	// Warm-up: a quarter of the run populates the buffer pool and settles
	// the promotion policy; it is excluded from the measurement.
	warm := cfg.TxPerThread/4 + 1
	for seq := 0; seq < warm; seq++ {
		for w := 0; w < cfg.Threads; w++ {
			clocks[w], err = db.runTx(clocks[w], rngs[w], gens[w], w, seq)
			if err != nil {
				return Result{}, err
			}
		}
	}
	starts := make([]sim.Time, cfg.Threads)
	copy(starts, clocks)
	_, warmWaited := db.logLock.Utilization()

	// Round-robin execution keeps worker clocks loosely synchronized so the
	// shared resources see a realistic interleaving.
	total := 0
	for seq := 0; seq < cfg.TxPerThread; seq++ {
		for w := 0; w < cfg.Threads; w++ {
			clocks[w], err = db.runTx(clocks[w], rngs[w], gens[w], w, warm+seq)
			if err != nil {
				return Result{}, err
			}
			total++
		}
	}
	var elapsed sim.Duration
	for w := range clocks {
		if d := clocks[w].Sub(starts[w]); d > elapsed {
			elapsed = d
		}
	}
	_, waited := db.logLock.Utilization()
	res := Result{TotalTx: total, Elapsed: elapsed, LogWaits: waited - warmWaited}
	if res.Elapsed > 0 {
		res.Throughput = float64(total) / res.Elapsed.Seconds()
	}
	return res, nil
}

// LogCosts exposes the calibrated per-record log latency and device
// occupancy (for tests and reports).
func (db *DB) LogCosts() (latency, service sim.Duration) {
	return db.logLatency, db.logService
}

// Stepper drives the workload one transaction at a time, for harnesses that
// interleave their own events (crash points, fault windows) with the
// transaction stream. It shares Run's initialization — identical
// per-worker RNG seeding and Zipf key streams — so a Stepper run is
// step-for-step deterministic against Run with the same Config.
type Stepper struct {
	db     *DB
	clocks []sim.Time
	rngs   []*sim.RNG
	gens   []*workload.Zipf
	seqs   []int
}

// NewStepper opens the database on h and prepares per-worker state.
func NewStepper(h core.Hierarchy, cfg Config) (*Stepper, error) {
	db, err := Open(h, cfg)
	if err != nil {
		return nil, err
	}
	st := &Stepper{
		db:     db,
		clocks: make([]sim.Time, cfg.Threads),
		seqs:   make([]int, cfg.Threads),
	}
	st.rngs, st.gens = db.workerStreams()
	return st, nil
}

// DB returns the underlying database (for RecoverCommitted after a crash).
func (st *Stepper) DB() *DB { return st.db }

// Step executes worker w's next transaction. The error is the hierarchy's
// (core.ErrCrashed once a scheduled power loss fires mid-transaction).
func (st *Stepper) Step(w int) error {
	now, err := st.db.runTx(st.clocks[w], st.rngs[w], st.gens[w], w, st.seqs[w])
	st.clocks[w] = now
	if err != nil {
		return err
	}
	st.seqs[w]++
	return nil
}

// CommittedSeq returns the highest sequence number worker w has durably
// committed (logSeqs starts at 1, so committed = next - 1). A transaction
// interrupted by a crash before its log append completed is not counted —
// though its record bytes may still have reached the persistence domain, so
// recovery may legitimately find committed+1.
func (st *Stepper) CommittedSeq(w int) uint64 { return st.db.logSeqs[w] - 1 }
