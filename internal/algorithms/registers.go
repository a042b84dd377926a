package algorithms

import (
	"repro/internal/machine"
	"repro/internal/spec"
)

// NewCAS builds the concrete NewCompareAndSet register of Fig. 4: a retry
// loop of read (N1) and CAS (N2) that returns the register's prior value.
func NewCAS(Config) *machine.Program {
	const gR = 0
	const locPrior = 0
	return &machine.Program{
		Name:    "newcas",
		Globals: machine.Schema{Names: []string{"r"}, Kinds: []machine.VarKind{machine.KVal}},
		NLocals: 1,
		Methods: []machine.Method{{
			Name: "NewCAS",
			Args: spec.PairArgs(),
			Body: []machine.Stmt{
				{Label: "N1", Exec: func(c *machine.Ctx) {
					exp, _ := spec.DecodePair(c.Arg)
					prior := c.V(gR)
					if prior != exp {
						c.Return(prior)
						return
					}
					c.L[locPrior] = prior
					c.Goto(1)
				}},
				{Label: "N2", Exec: func(c *machine.Ctx) {
					exp, val := spec.DecodePair(c.Arg)
					if c.CASV(gR, exp, val) {
						c.Return(exp)
					} else {
						c.Goto(0)
					}
				}},
			},
		}},
		FormatArg: spec.FormatPair,
	}
}

func newCASAlg() *Algorithm {
	return &Algorithm{
		ID:                 "newcas",
		Display:            "NewCompareAndSet",
		Ref:                "",
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              NewCAS,
		Spec:               func(Config) *machine.Program { return spec.NewCAS() },
	}
}

// CCAS builds the conditional-CAS of Turon et al. [29]: CCAS(e,n)
// installs a descriptor into the register with CAS, then completes it by
// writing n if the condition flag is clear (or restoring e if set);
// threads that encounter a foreign descriptor help complete it first.
// The flag read inside complete is the operation's non-fixed
// linearization point.
func CCAS(cfg Config) *machine.Program {
	const (
		gR    = 0
		gFlag = 1
	)
	const (
		locD   = 0 // own descriptor
		locCur = 1 // last read of r (tagged)
	)
	completeCAS := func(c *machine.Ctx, ref int32, flagClear bool) {
		d := c.Node(machine.Deref(ref))
		if flagClear {
			c.CASV(gR, ref, d.Key) // write new
		} else {
			c.CASV(gR, ref, d.Val) // restore expected
		}
	}
	return &machine.Program{
		Name: "ccas",
		Globals: machine.Schema{
			Names: []string{"r", "flag"},
			Kinds: []machine.VarKind{machine.KTagged, machine.KVal},
		},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    2,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KTagged},
		Methods: []machine.Method{
			{
				Name: "CCAS",
				Args: spec.PairArgs(),
				Body: []machine.Stmt{
					{Label: "C1", Exec: func(c *machine.Ctx) {
						exp, val := spec.DecodePair(c.Arg)
						d := c.Alloc(kindDesc)
						c.Node(d).Val = exp // expected
						c.Node(d).Key = val // new
						c.L[locD] = d
						c.Goto(1)
					}},
					{Label: "C2", Exec: func(c *machine.Ctx) {
						exp, _ := spec.DecodePair(c.Arg)
						cur := c.V(gR)
						if cur == exp {
							c.SetV(gR, machine.Ref(c.L[locD])) // install
							c.Goto(2)
							return
						}
						if machine.IsRef(cur) {
							c.L[locCur] = cur
							c.Goto(3) // help
							return
						}
						c.Return(cur) // condition failed
					}},
					// Complete own descriptor. The flag read is the
					// operation's (non-fixed) linearization point; it forms
					// one guarded atomic statement with the completing CAS,
					// as in the paper's LNT models.
					{Label: "C3", Exec: func(c *machine.Ctx) {
						exp, _ := spec.DecodePair(c.Arg)
						completeCAS(c, machine.Ref(c.L[locD]), c.V(gFlag) == 0)
						c.Return(exp)
					}},
					// Help a foreign descriptor, then retry.
					{Label: "C4", Exec: func(c *machine.Ctx) {
						completeCAS(c, c.L[locCur], c.V(gFlag) == 0)
						c.Goto(1)
					}},
				},
			},
			{
				Name: "SetFlag",
				Args: []int32{0, 1},
				Body: []machine.Stmt{{
					Label: "CF", Exec: func(c *machine.Ctx) {
						c.SetV(gFlag, c.Arg)
						c.Return(machine.ValOK)
					},
				}},
			},
		},
		FormatArg: func(m *machine.Method, arg int32) string {
			if m.Name == "CCAS" {
				return spec.FormatPair(m, arg)
			}
			return machine.FormatValue(arg)
		},
	}
}

// AbstractCCAS is the Theorem 5.8 abstraction of CCAS: a coarser-grained
// concurrent implementation that keeps the descriptor-installation
// structure (which is externally observable through helping) but merges
// each flag-read-and-complete pair into a single atomic block, shrinking
// every CCAS to at most two atomic blocks plus the atomic help.
func AbstractCCAS(cfg Config) *machine.Program {
	const (
		gR    = 0
		gFlag = 1
	)
	const locD = 0
	complete := func(c *machine.Ctx, ref int32) {
		d := c.Node(machine.Deref(ref))
		if c.V(gFlag) == 0 {
			c.CASV(gR, ref, d.Key)
		} else {
			c.CASV(gR, ref, d.Val)
		}
	}
	return &machine.Program{
		Name: "abstract-ccas",
		Globals: machine.Schema{
			Names: []string{"r", "flag"},
			Kinds: []machine.VarKind{machine.KTagged, machine.KVal},
		},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    1,
		LocalKinds: []machine.VarKind{machine.KPtr},
		Methods: []machine.Method{
			{
				Name: "CCAS",
				Args: spec.PairArgs(),
				Body: []machine.Stmt{
					{Label: "A1", Exec: func(c *machine.Ctx) {
						exp, val := spec.DecodePair(c.Arg)
						cur := c.V(gR)
						if machine.IsRef(cur) {
							complete(c, cur) // help atomically, then retry
							c.Goto(0)
							return
						}
						if cur != exp {
							c.Return(cur)
							return
						}
						d := c.Alloc(kindDesc)
						c.Node(d).Val = exp
						c.Node(d).Key = val
						c.L[locD] = d
						c.SetV(gR, machine.Ref(d)) // install
						c.Goto(1)
					}},
					{Label: "A2", Exec: func(c *machine.Ctx) {
						exp, _ := spec.DecodePair(c.Arg)
						complete(c, machine.Ref(c.L[locD]))
						c.Return(exp)
					}},
				},
			},
			{
				Name: "SetFlag",
				Args: []int32{0, 1},
				Body: []machine.Stmt{{
					Label: "AF", Exec: func(c *machine.Ctx) {
						c.SetV(gFlag, c.Arg)
						c.Return(machine.ValOK)
					},
				}},
			},
		},
		FormatArg: func(m *machine.Method, arg int32) string {
			if m.Name == "CCAS" {
				return spec.FormatPair(m, arg)
			}
			return machine.FormatValue(arg)
		},
	}
}

func ccasAlg() *Algorithm {
	return &Algorithm{
		ID:                 "ccas",
		Display:            "CCAS",
		Ref:                "[29]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              CCAS,
		Spec:               func(Config) *machine.Program { return spec.CCAS() },
		Abstract:           AbstractCCAS,
	}
}

// RDCSS builds Harris et al.'s restricted double-compare single-swap
// [15] over a control register r1 and a data register r2: RDCSS installs
// a descriptor into r2, then completes by checking r1; readers and other
// RDCSS operations that find a descriptor help complete it.
func RDCSS(cfg Config) *machine.Program {
	const (
		gR1 = 0
		gR2 = 1
	)
	const (
		locD   = 0 // own descriptor
		locCur = 1 // foreign descriptor (tagged)
	)
	complete := func(c *machine.Ctx, ref, v1 int32) {
		d := c.Node(machine.Deref(ref))
		if v1 == d.Val { // r1 == o1: commit
			c.CASV(gR2, ref, d.C)
		} else { // roll back
			c.CASV(gR2, ref, d.Key)
		}
	}
	return &machine.Program{
		Name: "rdcss",
		Globals: machine.Schema{
			Names: []string{"r1", "r2"},
			Kinds: []machine.VarKind{machine.KVal, machine.KTagged},
		},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    2,
		LocalKinds: []machine.VarKind{machine.KPtr, machine.KTagged},
		Methods: []machine.Method{
			{
				Name: "RDCSS",
				Args: spec.TripleArgs(),
				Body: []machine.Stmt{
					{Label: "R1", Exec: func(c *machine.Ctx) {
						o1, o2, n2 := spec.DecodeTriple(c.Arg)
						d := c.Alloc(kindDesc)
						c.Node(d).Val = o1
						c.Node(d).Key = o2
						c.Node(d).C = n2
						c.L[locD] = d
						c.Goto(1)
					}},
					{Label: "R2", Exec: func(c *machine.Ctx) {
						_, o2, _ := spec.DecodeTriple(c.Arg)
						cur := c.V(gR2)
						if machine.IsRef(cur) {
							c.L[locCur] = cur
							c.Goto(3) // help
							return
						}
						if cur == o2 {
							c.SetV(gR2, machine.Ref(c.L[locD])) // install
							c.Goto(2)
							return
						}
						c.Return(cur) // data comparison failed
					}},
					// Complete own descriptor: the r1 read (the LP) and
					// the completing CAS form one guarded atomic statement.
					{Label: "R3", Exec: func(c *machine.Ctx) {
						_, o2, _ := spec.DecodeTriple(c.Arg)
						complete(c, machine.Ref(c.L[locD]), c.V(gR1))
						c.Return(o2)
					}},
					// Help a foreign descriptor, then retry.
					{Label: "R4", Exec: func(c *machine.Ctx) {
						complete(c, c.L[locCur], c.V(gR1))
						c.Goto(1)
					}},
				},
			},
			{
				Name: "Write1",
				Args: []int32{0, 1},
				Body: []machine.Stmt{{
					Label: "W1", Exec: func(c *machine.Ctx) {
						c.SetV(gR1, c.Arg)
						c.Return(machine.ValOK)
					},
				}},
			},
		},
		FormatArg: func(m *machine.Method, arg int32) string {
			if m.Name == "RDCSS" {
				return spec.FormatTriple(m, arg)
			}
			return machine.FormatValue(arg)
		},
	}
}

// AbstractRDCSS is the Theorem 5.8 abstraction of RDCSS, mirroring
// AbstractCCAS: the descriptor installation stays (it is observable via
// helping), while each r1-read-and-complete pair becomes one atomic
// block.
func AbstractRDCSS(cfg Config) *machine.Program {
	const (
		gR1 = 0
		gR2 = 1
	)
	const locD = 0
	complete := func(c *machine.Ctx, ref int32) {
		d := c.Node(machine.Deref(ref))
		if c.V(gR1) == d.Val {
			c.CASV(gR2, ref, d.C)
		} else {
			c.CASV(gR2, ref, d.Key)
		}
	}
	return &machine.Program{
		Name: "abstract-rdcss",
		Globals: machine.Schema{
			Names: []string{"r1", "r2"},
			Kinds: []machine.VarKind{machine.KVal, machine.KTagged},
		},
		HeapCap:    cfg.TotalOps() + 1,
		NLocals:    1,
		LocalKinds: []machine.VarKind{machine.KPtr},
		Methods: []machine.Method{
			{
				Name: "RDCSS",
				Args: spec.TripleArgs(),
				Body: []machine.Stmt{
					{Label: "A1", Exec: func(c *machine.Ctx) {
						o1, o2, n2 := spec.DecodeTriple(c.Arg)
						cur := c.V(gR2)
						if machine.IsRef(cur) {
							complete(c, cur) // help atomically, then retry
							c.Goto(0)
							return
						}
						if cur != o2 {
							c.Return(cur)
							return
						}
						d := c.Alloc(kindDesc)
						c.Node(d).Val = o1
						c.Node(d).Key = o2
						c.Node(d).C = n2
						c.L[locD] = d
						c.SetV(gR2, machine.Ref(d)) // install
						c.Goto(1)
					}},
					{Label: "A2", Exec: func(c *machine.Ctx) {
						_, o2, _ := spec.DecodeTriple(c.Arg)
						complete(c, machine.Ref(c.L[locD]))
						c.Return(o2)
					}},
				},
			},
			{
				Name: "Write1",
				Args: []int32{0, 1},
				Body: []machine.Stmt{{
					Label: "AW", Exec: func(c *machine.Ctx) {
						c.SetV(gR1, c.Arg)
						c.Return(machine.ValOK)
					},
				}},
			},
		},
		FormatArg: func(m *machine.Method, arg int32) string {
			if m.Name == "RDCSS" {
				return spec.FormatTriple(m, arg)
			}
			return machine.FormatValue(arg)
		},
	}
}

func rdcssAlg() *Algorithm {
	return &Algorithm{
		ID:                 "rdcss",
		Display:            "RDCSS",
		Ref:                "[15]",
		NonFixedLPs:        true, // per Table I (Table II leaves the cell blank)
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              RDCSS,
		Spec:               func(Config) *machine.Program { return spec.RDCSS() },
		Abstract:           AbstractRDCSS,
	}
}
