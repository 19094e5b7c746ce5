package crashsweep

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/txdb"
)

// txdbState drives the per-transaction-logging database round-robin: step i
// runs worker i % threads, the order of txdb's own rounds. The checked
// invariant is the log-record durability contract — committed[w] <=
// recovered[w] <= committed[w]+1 for every worker (a record can reach the
// persistence domain just before its commit is acknowledged, never after and
// never lost).
type txdbState struct {
	st                   *txdb.Stepper
	threads, txPerThread int
}

// openTxdb opens the database on a fresh hierarchy. A crash run's faults
// apply from the database's own set-up on: opening it calibrates the log
// through the device.
func (c Config) openTxdb(arm func(*core.FlatFlash)) (*core.FlatFlash, client, error) {
	ff, err := c.hierarchy()
	if err != nil {
		return nil, nil, err
	}
	arm(ff)
	st, err := txdb.NewStepper(ff, txdb.Config{
		Workload:      txdb.TPCB,
		LogMode:       txdb.PerTransaction,
		Threads:       c.Threads,
		TxPerThread:   c.TxPerThread,
		DBBytes:       256 << 10,
		Seed:          c.Seed,
		FunctionalLog: true, // real CRC'd records, so RecoverCommitted works
	})
	if err != nil {
		return nil, nil, err
	}
	return ff, &txdbState{st: st, threads: c.Threads, txPerThread: c.TxPerThread}, nil
}

func (s *txdbState) step(i int) error { return s.st.Step(i % s.threads) }

// check replays the logs and holds every worker to its acknowledged commits.
func (s *txdbState) check(ff *core.FlatFlash) ([]string, error) {
	var recovered []uint64
	if _, err := readBack(ff, func() error {
		var e error
		recovered, e = s.st.DB().RecoverCommitted()
		return e
	}); err != nil {
		return nil, err
	}
	var violations []string
	for w := 0; w < s.threads; w++ {
		committed := s.st.CommittedSeq(w)
		switch {
		case recovered[w] < committed:
			violations = append(violations,
				fmt.Sprintf("worker %d: committed through seq %d but recovery found only %d",
					w, committed, recovered[w]))
		case recovered[w] > committed+1:
			violations = append(violations,
				fmt.Sprintf("worker %d: recovery found phantom commits (%d > committed %d + 1)",
					w, recovered[w], committed))
		}
	}
	return violations, nil
}

// resume restarts the interrupted round from its first worker and finishes
// the transaction stream, bounded by resumeOps full rounds.
func (s *txdbState) resume(done int) (from, n int) {
	round := done / s.threads
	return round * s.threads, min(s.txPerThread-round, resumeOps) * s.threads
}
