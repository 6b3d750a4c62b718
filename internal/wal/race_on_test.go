//go:build race

package wal

// raceEnabled reports that the race detector is instrumenting this
// build: its shadow-memory bookkeeping shows up in AllocsPerRun, so the
// allocation guards skip themselves (the non-race CI job pins them).
const raceEnabled = true
