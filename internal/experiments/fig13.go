package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fsim"
)

// Fig13 reproduces Figure 13: speedup of common file-system operations when
// metadata persistence moves from block journaling (on TraditionalStack,
// the conventional deployment) to FlatFlash's byte-granular persistence,
// for EXT4, XFS, and BtrFS. The flash-program ratio is the SSD-lifetime
// improvement reported in Table 1.
func Fig13(scale Scale) *Report {
	ops := scale.pick(60, 250)
	rep := &Report{
		ID:     "fig13",
		Title:  "File-system ops: FlatFlash byte persistence vs block journaling",
		Header: []string{"Workload", "EXT4", "XFS", "BtrFS", "EXT4 wear", "XFS wear", "BtrFS wear"},
	}
	kinds := []fsim.FSKind{fsim.EXT4, fsim.XFS, fsim.BtrFS}
	workloads := fsim.Workloads
	// Cells come in pairs per (workload, kind): block journaling over the
	// traditional stack (the conventional deployment), then FlatFlash's
	// byte-granular persistence.
	runs := fanOut(len(workloads)*len(kinds)*2, func(e env, i int) (fsim.Result, error) {
		w, kind := workloads[i/(2*len(kinds))], kinds[i/2%len(kinds)]
		if i%2 == 0 {
			return fsimCell(e, "TraditionalStack", kind, fsim.BlockJournal, w, ops)
		}
		return fsimCell(e, "FlatFlash", kind, fsim.BytePersist, w, ops)
	})
	for _, w := range workloads {
		row := []string{w.String()}
		var wear []string
		for range kinds {
			rb, rf := runs[0], runs[1]
			runs = runs[2:]
			row = append(row, ratio(float64(rb.Elapsed), float64(rf.Elapsed)))
			if rf.FlashProgramsDelta > 0 {
				wear = append(wear, fmt.Sprintf("%.1fx", float64(rb.FlashProgramsDelta)/float64(rf.FlashProgramsDelta)))
			} else if rb.FlashProgramsDelta > 0 {
				wear = append(wear, fmt.Sprintf(">%dx", rb.FlashProgramsDelta))
			} else {
				wear = append(wear, "1.0x")
			}
		}
		rep.AddRow(append(row, wear...)...)
	}
	rep.AddNote("paper: 2.6-18.9x speedups (EXT4/XFS/BtrFS across these workloads); wear = flash-program reduction (lifetime)")
	return rep
}

// fsimCell runs one file-system workload on a fresh 64 MB hierarchy.
//
//flatflash:lp
func fsimCell(e env, name string, kind fsim.FSKind, backend fsim.Backend, w fsim.Workload, ops int) (fsim.Result, error) {
	h, err := e.build(name, core.DefaultConfig(64<<20, 4<<20))
	if err != nil {
		return fsim.Result{}, err
	}
	return fsim.RunWorkload(h, kind, backend, w, ops)
}
