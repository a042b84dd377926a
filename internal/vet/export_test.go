package vet

import "repro/internal/machine"

// DisableStaticAcyclicity leaves acyclicity to the pilot alone until
// restore is called.
func DisableStaticAcyclicity() (restore func()) {
	staticAcyclicity = false
	return func() { staticAcyclicity = true }
}

// AddBogusRegion makes Reduce trust, besides the inferred lock regions,
// a region that claims every statement, until restore is called.
func AddBogusRegion() (restore func()) {
	lockRegionsOf = func(p *machine.Program) []lockRegion {
		bogus := lockRegion{name: "bogus", held: make([][]bool, len(p.Methods))}
		for mi := range p.Methods {
			bogus.held[mi] = make([]bool, len(p.Methods[mi].Body))
			for si := range bogus.held[mi] {
				bogus.held[mi][si] = true
			}
		}
		return append(inferLockRegions(p), bogus)
	}
	return func() { lockRegionsOf = inferLockRegions }
}
