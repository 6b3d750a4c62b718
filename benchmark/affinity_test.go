package main

import (
	"runtime"
	"testing"
)

// splitProcessors must leave this process on one processor with one P,
// name another for the server, and put everything back.
func TestSplitProcessors(t *testing.T) {
	runtime.LockOSThread() // the masks read below are this thread's
	defer runtime.UnlockOSThread()
	before, err := threadAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	serverCPU, restore, err := splitProcessors()
	if err != nil {
		t.Fatal(err)
	}
	if len(before.cpus()) < 2 {
		if serverCPU != -1 {
			t.Errorf("one processor to split, server given %d", serverCPU)
		}
		restore()
		return
	}
	during, err := threadAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := during.cpus(); len(got) != 1 || got[0] == serverCPU || runtime.GOMAXPROCS(0) != 1 {
		t.Errorf("generator on %v with GOMAXPROCS %d, server on %d", got, runtime.GOMAXPROCS(0), serverCPU)
	}
	if before[serverCPU/64]&(1<<(serverCPU%64)) == 0 {
		t.Errorf("server given processor %d, outside the process's own %v", serverCPU, before.cpus())
	}
	restore()
	after, err := threadAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if after != before || runtime.GOMAXPROCS(0) != procs {
		t.Errorf("after restore: processors %v (were %v), GOMAXPROCS %d (was %d)", after.cpus(), before.cpus(), runtime.GOMAXPROCS(0), procs)
	}
}
