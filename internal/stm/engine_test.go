package stm

import (
	"strings"
	"testing"
)

// TestEngineRegistry pins the registry contents: the enum values, their
// canonical names, and the parse round trip.
func TestEngineRegistry(t *testing.T) {
	want := []Engine{Lazy, Eager, GlobalLock, TL2}
	got := Engines()
	if len(got) != len(want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Engines()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	names := EngineNames()
	for i, e := range got {
		if e.String() != names[i] {
			t.Errorf("String/EngineNames disagree for %v: %q vs %q", e, e.String(), names[i])
		}
		parsed, err := ParseEngine(e.String())
		if err != nil || parsed != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e.String(), parsed, err, e)
		}
		if EngineDoc(e) == "" {
			t.Errorf("engine %v has no doc line", e)
		}
	}
}

func TestParseEngineAliasesAndCase(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"lazy", Lazy},
		{"EAGER", Eager},
		{"global-lock", GlobalLock},
		{"global", GlobalLock},
		{"tl2", TL2},
		{"snapshot", TL2},
		{" TL2 ", TL2},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// "adaptive" names no engine; the error lists the four that exist.
	if _, err := ParseEngine("adaptive"); err == nil {
		t.Error(`ParseEngine("adaptive") succeeded`)
	} else if !strings.Contains(err.Error(), "want lazy, eager, global-lock, tl2)") {
		t.Errorf(`ParseEngine("adaptive") error does not list the four engines: %v`, err)
	}
	if _, err := ParseEngine("nope"); err == nil {
		t.Fatal("ParseEngine accepted an unknown name")
	} else if !strings.Contains(err.Error(), "lazy") || !strings.Contains(err.Error(), "tl2") {
		t.Errorf("parse error does not enumerate valid names: %v", err)
	}
}

func TestUnknownEngineString(t *testing.T) {
	if got := Engine(99).String(); got != "engine(99)" {
		t.Errorf("Engine(99).String() = %q", got)
	}
	if EngineDoc(Engine(99)) != "" {
		t.Error("EngineDoc of an unregistered engine is non-empty")
	}
}

func TestNewPanicsOnUnregisteredEngine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unregistered engine")
		}
	}()
	_ = New(WithEngine(Engine(99)))
}

// TestTL2TimestampExtension pins the snapshot engine's signature move: a
// read that lands after an unrelated commit extends the snapshot instead
// of aborting the attempt, while the lazy engine must retry.
func TestTL2TimestampExtension(t *testing.T) {
	for _, tc := range []struct {
		e             Engine
		wantConflicts bool
	}{
		{Lazy, true},
		{TL2, false},
	} {
		t.Run(tc.e.String(), func(t *testing.T) {
			s := New(WithEngine(tc.e))
			x := s.NewVar("x", 1)
			y := s.NewVar("y", 0)
			first := true
			var got int64
			err := s.Atomically(func(tx *Tx) error {
				_ = tx.Read(x)
				if first {
					// Commit an unrelated write after our snapshot, from
					// inside the body (the inner transaction is independent;
					// neither engine holds instance-level locks here).
					first = false
					if err := s.Atomically(func(in *Tx) error {
						in.Write(y, 7)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				got = tx.Read(y)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != 7 {
				t.Fatalf("read y = %d, want 7", got)
			}
			conflicts := s.Snapshot().Conflicts
			if tc.wantConflicts && conflicts == 0 {
				t.Error("lazy engine committed without retrying past a newer write")
			}
			if !tc.wantConflicts && conflicts != 0 {
				t.Errorf("tl2 recorded %d conflicts; timestamp extension should absorb the newer write", conflicts)
			}
		})
	}
}

// TestTL2ExtensionRefusedWhenReadInvalidated: if the already-read
// location itself was overwritten, extension must fail and the attempt
// must retry (a silent extension would yield a torn snapshot).
func TestTL2ExtensionRefusedWhenReadInvalidated(t *testing.T) {
	s := New(WithEngine(TL2))
	x := s.NewVar("x", 1)
	y := s.NewVar("y", 0)
	first := true
	var rx, ry int64
	err := s.Atomically(func(tx *Tx) error {
		rx = tx.Read(x)
		if first {
			first = false
			// Overwrite both after the snapshot: the y read below cannot
			// extend (x is stale) and the attempt must restart.
			if err := s.Atomically(func(in *Tx) error {
				in.Write(x, 2)
				in.Write(y, 2)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		ry = tx.Read(y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rx != 2 || ry != 2 {
		t.Fatalf("torn snapshot: x=%d y=%d, want 2 2", rx, ry)
	}
	if s.Snapshot().Conflicts == 0 {
		t.Error("expected a conflict-retry when extension is impossible")
	}
}

func TestTxRetry(t *testing.T) {
	forEachEngine(t, func(t *testing.T, s *STM) {
		x := s.NewVar("x", 0)
		tries := 0
		if err := s.Atomically(func(tx *Tx) error {
			tries++
			if tries == 1 {
				tx.Retry()
			}
			tx.Write(x, int64(tries))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if tries != 2 || x.Load() != 2 {
			t.Fatalf("tries=%d x=%d, want 2 2", tries, x.Load())
		}
		if s.Snapshot().Conflicts == 0 {
			t.Error("Retry not counted as a conflict")
		}
	})
}
