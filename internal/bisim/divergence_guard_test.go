package bisim

import "testing"

// TestDivergenceActionReserved documents the reserved synthetic action
// IDs: τ̂ = 1<<30 - 2 stands for τ in the τ-free systems of strong and
// weak refinement, and δ = 1<<30 - 1 encodes divergence. Neither ever
// comes from an Alphabet, and the one guard called wherever δ signature
// pairs or a τ-free system are built refuses any alphabet large enough
// for a genuine action to collide with either.
func TestDivergenceActionReserved(t *testing.T) {
	if tauHat+1 != divergenceAction {
		t.Fatalf("τ̂ = %d and δ = %d must be the two IDs at the top of the reserve", tauHat, divergenceAction)
	}
	// Realistic alphabets are nowhere near the reserve; the guard passes.
	checkReservedActions(0)
	checkReservedActions(1 << 20)
	// The largest safe alphabet has IDs 0..τ̂-1, i.e. exactly τ̂ actions.
	checkReservedActions(int(tauHat))

	// One more action would intern ID τ̂ itself and silently corrupt
	// strong and weak refinement; the guard must panic instead.
	defer func() {
		if recover() == nil {
			t.Fatalf("alphabet of %d actions collides with τ̂; guard did not panic", int(tauHat)+1)
		}
	}()
	checkReservedActions(int(tauHat) + 1)
}
