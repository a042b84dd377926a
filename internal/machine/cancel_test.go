package machine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// bigProgram returns a program with a state space far too large to
// finish within the test's timeouts, so cancellation must land
// mid-exploration: three counters incremented to a high bound by every
// thread make the interleaving space explode combinatorially.
func bigProgram() *Program {
	return &Program{
		Name: "big",
		Globals: Schema{
			Names: []string{"a", "b", "c"},
			Kinds: []VarKind{KVal, KVal, KVal},
		},
		Methods: []Method{{
			Name: "Inc",
			Body: []Stmt{
				{Label: "inc-a", Exec: func(c *Ctx) {
					if c.V(0) < 40 {
						c.SetV(0, c.V(0)+1)
					}
					c.Goto(1)
				}},
				{Label: "inc-b", Exec: func(c *Ctx) {
					if c.V(1) < 40 {
						c.SetV(1, c.V(1)+1)
					}
					c.Goto(2)
				}},
				{Label: "inc-c", Exec: func(c *Ctx) {
					if c.V(2) < 40 {
						c.SetV(2, c.V(2)+1)
					}
					c.Return(ValOK)
				}},
			},
		}},
	}
}

// TestExploreContextCanceled pins the cancellation contract for both
// explorers: a context canceled mid-exploration aborts promptly with a
// *CanceledError that unwraps to context.Canceled.
func TestExploreContextCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := ExploreWithInfoContext(ctx, bigProgram(), Options{Threads: 3, Ops: 40, Workers: workers})
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: canceled exploration must error", workers)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("workers=%d: error %v is not a *CanceledError", workers, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: error %v must unwrap to context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: exploration did not observe cancellation within 5s", workers)
		}
	}
}

// TestExploreContextDeadline pins that a deadline surfaces as
// context.DeadlineExceeded through the typed error.
func TestExploreContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, _, err := ExploreWithInfoContext(ctx, bigProgram(), Options{Threads: 3, Ops: 40, Workers: 1})
	if err == nil {
		t.Fatal("timed-out exploration must error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must unwrap to context.DeadlineExceeded", err)
	}
}

// TestExploreContextCompletes pins that a live cancelable context
// changes nothing: the exploration produces the same LTS as under the
// background context.
func TestExploreContextCompletes(t *testing.T) {
	opt := Options{Threads: 2, Ops: 2, Workers: 1}
	plain, _, err := ExploreWithInfoContext(context.Background(), counterProgram(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx, _, err := ExploreWithInfoContext(ctx, counterProgram(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumStates() != viaCtx.NumStates() || plain.NumTransitions() != viaCtx.NumTransitions() {
		t.Fatalf("a live context changed the LTS: %d/%d vs %d/%d states/transitions",
			plain.NumStates(), plain.NumTransitions(), viaCtx.NumStates(), viaCtx.NumTransitions())
	}
}
