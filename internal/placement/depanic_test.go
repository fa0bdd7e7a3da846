package placement

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// Regression tests for the library's former init/construction panics:
// registry seeding failures must surface as errors, never crash the
// embedding process (a server must not die because a plugin registered
// a colliding strategy name).

func TestNewRegistryReturnsNoError(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	if r == nil {
		t.Fatal("NewRegistry returned nil registry")
	}
	for _, id := range AllStrategies() {
		if _, ok := r.Lookup(id); !ok {
			t.Errorf("builtin strategy %s missing after seed", id)
		}
	}
}

func TestSeedRegistryDuplicateIsErrorNotPanic(t *testing.T) {
	dup := NewStrategy("dup-strat", func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return nil, 0, nil
	})
	r := &Registry{byID: map[StrategyID]Strategy{}}
	err := seedRegistry(r, []Strategy{dup, dup})
	if err == nil {
		t.Fatal("seeding a duplicate strategy returned nil error")
	}
	if !strings.Contains(err.Error(), "seeding builtin strategies") {
		t.Fatalf("error %q does not identify the seeding phase", err)
	}
}
