package star

import (
	"errors"
	"testing"

	"repro/internal/rounds"
)

// TestFinishBoundsN: the netwire codec encodes no vector above 65 535
// entries, so a cluster that large would build and then never elect. New
// rejects it up front; the check runs before anything is built, so the
// accepted bound is tested on the config alone.
func TestFinishBoundsN(t *testing.T) {
	c := defaultConfig()
	c.n = rounds.MaxN
	if err := c.finish(); err != nil {
		t.Fatalf("N = %d rejected: %v", rounds.MaxN, err)
	}
	if _, err := New(N(rounds.MaxN + 1)); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("N = %d: err = %v, want ErrInvalidParams", rounds.MaxN+1, err)
	}
}
