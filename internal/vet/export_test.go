package vet

import "repro/internal/machine"

// TrustedOracle returns the relation a's confluence classification
// trusts for p, in the shape machine.ValidateIndependence consumes: two
// statements are footprint-independent, or both are held under one
// inferred lock region. With bogus set it also trusts a region that
// claims every statement. a must be Reduce's artifact for p.
func TrustedOracle(p *machine.Program, a *ReductionArtifact, bogus bool) machine.IndependenceOracle {
	regions := inferLockRegions(p)
	if bogus {
		all := lockRegion{name: "bogus", held: make([][]bool, len(p.Methods))}
		for mi := range p.Methods {
			all.held[mi] = make([]bool, len(p.Methods[mi].Body))
			for si := range all.held[mi] {
				all.held[mi][si] = true
			}
		}
		regions = append(regions, all)
	}
	return a.oracle(a.commutes(regions))
}
