//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this
// build: its shadow-memory bookkeeping shows up in AllocsPerRun, so the
// allocation guard skips itself (the non-race CI job pins it).
const raceEnabled = true
