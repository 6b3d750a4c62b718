package stm

import (
	"strings"
	"testing"
)

// TestEngineRegistry pins the registry contents: the enum values, their
// canonical names, and the parse round trip.
func TestEngineRegistry(t *testing.T) {
	want := []Engine{Lazy, Eager, GlobalLock}
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
		{" Lazy ", Lazy},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// Deleted engines and their aliases name no engine; the error lists
	// the three that exist.
	for _, in := range []string{"adaptive", "tl2", "snapshot", " TL2 "} {
		if _, err := ParseEngine(in); err == nil {
			t.Errorf("ParseEngine(%q) succeeded", in)
		} else if !strings.Contains(err.Error(), "want lazy, eager, global-lock)") {
			t.Errorf("ParseEngine(%q) error does not list the three engines: %v", in, err)
		}
	}
	if _, err := ParseEngine("nope"); err == nil {
		t.Fatal("ParseEngine accepted an unknown name")
	} else if !strings.Contains(err.Error(), "lazy") || !strings.Contains(err.Error(), "global-lock") {
		t.Errorf("parse error does not enumerate valid names: %v", err)
	}
}

func TestUnknownEngineString(t *testing.T) {
	if got := Engine(99).String(); got != "engine(99)" {
		t.Errorf("Engine(99).String() = %q", got)
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

// TestTL2TimestampExtension pins what the lazy engine does with a read
// that lands after an unrelated commit: it has no timestamp extension,
// so the too-new read costs exactly one retry, and the re-run reads the
// new value. The lazy row reads from a read-write body. The tl2 row
// reads from a read-only body, the path the tl2 engine (folded into
// lazy) extended its snapshot on; classic TL2 retries there too.
func TestTL2TimestampExtension(t *testing.T) {
	for _, tc := range []struct {
		name     string
		readOnly bool
	}{
		{"lazy", false},
		{"tl2", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(WithEngine(Lazy))
			x := s.NewVar("x", 1)
			y := s.NewVar("y", 0)
			first := true
			var got int64
			body := func(read func(*Var) int64) error {
				_ = read(x)
				if first {
					// Commit an unrelated write after our snapshot, from
					// inside the body (the inner transaction is
					// independent; the lazy engine holds no
					// instance-level lock here).
					first = false
					if err := s.Atomically(func(in *Tx) error {
						in.Write(y, 7)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				got = read(y)
				return nil
			}
			var err error
			if tc.readOnly {
				err = s.AtomicallyRead(func(r *ReadTx) error { return body(r.Read) })
			} else {
				err = s.Atomically(func(tx *Tx) error { return body(tx.Read) })
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != 7 {
				t.Fatalf("read y = %d, want 7", got)
			}
			if c := s.Snapshot().Conflicts; c != 1 {
				t.Errorf("recorded %d conflicts, want exactly one retry past the newer write", c)
			}
		})
	}
}

// TestTL2ExtensionRefusedWhenReadInvalidated: if the already-read
// location itself was overwritten, the attempt must retry rather than
// move its snapshot forward (which would yield a torn snapshot).
func TestTL2ExtensionRefusedWhenReadInvalidated(t *testing.T) {
	s := New(WithEngine(Lazy))
	x := s.NewVar("x", 1)
	y := s.NewVar("y", 0)
	first := true
	var rx, ry int64
	err := s.Atomically(func(tx *Tx) error {
		rx = tx.Read(x)
		if first {
			first = false
			// Overwrite both after the snapshot: the y read below is too
			// new (and x is stale), so the attempt must restart.
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
		t.Error("expected a conflict-retry past the overwritten read")
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
