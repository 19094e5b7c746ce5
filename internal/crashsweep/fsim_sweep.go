package crashsweep

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fsim"
)

// fsimState tracks what the workload has committed, so post-crash checks know
// exactly what recovery owes them.
type fsimState struct {
	fs        *fsim.FS
	files     []int64
	committed []int64 // inodes of acknowledged CreateFile commits
	commits   int64   // fs.Ops() after the last *successful* operation
}

// openFsim formats the metadata file system on a fresh hierarchy; a crash
// run's faults apply from its first operation on.
func (c Config) openFsim(arm func(*core.FlatFlash)) (*core.FlatFlash, client, error) {
	ff, err := c.hierarchy()
	if err != nil {
		return nil, nil, err
	}
	fs, err := fsim.Open(ff, fsim.EXT4, fsim.BytePersist, c.FsimOps*2+resumeOps*2+8)
	if err != nil {
		return nil, nil, err
	}
	arm(ff)
	return ff, &fsimState{fs: fs}, nil
}

// step runs the i'th operation of the deterministic create/rename/append mix.
// fs.Ops() is snapshotted only on success: a commit interrupted mid-persist
// has already bumped the internal op counter but was never acknowledged.
func (st *fsimState) step(i int) error {
	switch {
	case i%4 == 3 && len(st.files) > 0:
		if err := st.fs.AppendPage(st.files[i%len(st.files)]); err != nil {
			return err
		}
	case i%3 == 2 && len(st.files) > 0:
		if err := st.fs.RenameFile(st.files[i%len(st.files)]); err != nil {
			return err
		}
	default:
		ino, err := st.fs.CreateFile()
		if err != nil {
			return err
		}
		st.files = append(st.files, ino)
		st.committed = append(st.committed, ino)
	}
	st.commits = st.fs.Ops()
	return nil
}

// check verifies what fsim's metadata transactions promised.
func (st *fsimState) check(ff *core.FlatFlash) ([]string, error) {
	var violations []string
	// Committed-data durability: every acknowledged CreateFile's inode must
	// still carry its allocated bit.
	for _, ino := range st.committed {
		ok, err := readBack(ff, func() error {
			alloc, e := st.fs.InodeAllocated(ino)
			if e == nil && !alloc {
				e = errCheckFailed
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			violations = append(violations, fmt.Sprintf("committed inode %d lost across crash", ino))
		}
	}
	// No torn cache lines: each acknowledged commit's 8-byte journal header
	// must read back exactly its op number — the header traveled as a single
	// posted MMIO cache-line write.
	for op := int64(1); op <= st.commits; op++ {
		var got uint64
		ok, err := readBack(ff, func() error {
			var e error
			got, e = st.fs.JournalHeader(op)
			if e == nil && got != uint64(op) {
				e = errCheckFailed
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			violations = append(violations,
				fmt.Sprintf("journal header for op %d reads %d (torn or lost)", op, got))
		}
	}
	return violations, nil
}

// resume continues the operation stream where the crash cut it, for
// resumeOps operations.
func (st *fsimState) resume(done int) (from, n int) { return done, resumeOps }
