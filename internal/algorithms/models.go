package algorithms

import (
	"fmt"
	"sync"

	bbvlexamples "repro/examples/bbvl"
	"repro/internal/bbvl"
	"repro/internal/machine"
)

// embeddedModel is one model of examples/bbvl, compiled once per
// process on first use. The registry rows built from it compile
// nothing: All and ByID run in every process that lists the registry,
// most of which never build these programs. Diagnostics are positioned
// in examples/bbvl/<name>.bbvl.
type embeddedModel func() *bbvl.Model

func embedded(name string) embeddedModel {
	return sync.OnceValue(func() *bbvl.Model {
		src, err := bbvlexamples.Source(name)
		if err != nil {
			panic("algorithms: " + err.Error())
		}
		m, err := bbvl.Load("examples/bbvl/"+bbvlexamples.Filename(name), src)
		if err != nil {
			// A shipped model that fails to compile is a build defect.
			panic(fmt.Sprintf("algorithms: embedded model %s: %v", name, err))
		}
		return m
	})
}

func (m embeddedModel) build(cfg Config) *machine.Program    { return m().Build(cfg) }
func (m embeddedModel) spec(cfg Config) *machine.Program     { return m().SpecProgram(cfg) }
func (m embeddedModel) abstract(cfg Config) *machine.Program { return m().AbstractProgram(cfg) }

var (
	treiberModel         = embedded("treiber")
	msQueueModel         = embedded("msqueue")
	dglmQueueModel       = embedded("dglm-queue")
	spinLockStackModel   = embedded("spinlock-stack")
	lazyListModel        = embedded("lazy-list")
	optimisticListModel  = embedded("optimistic-list")
	fineGrainedListModel = embedded("fine-grained-list")
	twoLockQueueModel    = embedded("two-lock-queue")
	coarseListModel      = embedded("coarse-list")
)

// LockBased and Abstract of the rows below restate the model's
// lockbased line and abstract block, so that listing the registry
// compiles nothing; TestEmbeddedRowsMatchModels holds them equal.

func treiberAlg() *Algorithm {
	return &Algorithm{
		ID:                 "treiber",
		Display:            "Treiber stack",
		Ref:                "[28]",
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              treiberModel.build,
		Spec:               treiberModel.spec,
	}
}

func msQueueAlg() *Algorithm {
	return &Algorithm{
		ID:                 "ms-queue",
		Display:            "MS lock-free queue",
		Ref:                "[25]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              msQueueModel.build,
		Spec:               msQueueModel.spec,
		Abstract:           msQueueModel.abstract,
	}
}

// dglmQueueAlg shares the MS queue's abstract program (Fig. 8), which
// msqueue.bbvl declares: the paper checks both queues against it.
func dglmQueueAlg() *Algorithm {
	return &Algorithm{
		ID:                 "dglm-queue",
		Display:            "DGLM queue",
		Ref:                "[7]",
		NonFixedLPs:        true,
		ExpectLinearizable: true,
		ExpectLockFree:     true,
		Build:              dglmQueueModel.build,
		Spec:               dglmQueueModel.spec,
		Abstract:           msQueueModel.abstract,
	}
}

// spinLockStackAlg is the lock-based counterpart of the Treiber stack:
// linearizable, deadlock-free, and not lock-free (the busy-wait is a τ
// self-loop).
func spinLockStackAlg() *Algorithm {
	return &Algorithm{
		ID:                 "spinlock-stack",
		Display:            "Spin-lock stack",
		Ref:                "(extension)",
		Extension:          true,
		LockBased:          true,
		ExpectLinearizable: true,
		ExpectLockFree:     false,
		Build:              spinLockStackModel.build,
		Spec:               spinLockStackModel.spec,
	}
}

// The lock-based lists of Table II [16, 17] and the two lock-based
// extensions: linearizable and deadlock-free, never lock-free (a thread
// blocked on a lock waits on its holder).

func lazyListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "lazy-list",
		Display:            "Heller et al. lazy list",
		Ref:                "[16]",
		NonFixedLPs:        true,
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              lazyListModel.build,
		Spec:               lazyListModel.spec,
	}
}

func optimisticListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "optimistic-list",
		Display:            "Optimistic list",
		Ref:                "[17]",
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              optimisticListModel.build,
		Spec:               optimisticListModel.spec,
	}
}

func fineGrainedListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "fine-grained-list",
		Display:            "Fine-grained syn. list",
		Ref:                "[17]",
		LockBased:          true,
		ExpectLinearizable: true,
		Build:              fineGrainedListModel.build,
		Spec:               fineGrainedListModel.spec,
	}
}

func twoLockQueueAlg() *Algorithm {
	return &Algorithm{
		ID:                 "two-lock-queue",
		Display:            "MS two-lock queue",
		Ref:                "[25]",
		LockBased:          true,
		Extension:          true,
		ExpectLinearizable: true,
		Build:              twoLockQueueModel.build,
		Spec:               twoLockQueueModel.spec,
	}
}

func coarseListAlg() *Algorithm {
	return &Algorithm{
		ID:                 "coarse-list",
		Display:            "Coarse-grained syn. list",
		Ref:                "[17]",
		LockBased:          true,
		Extension:          true,
		ExpectLinearizable: true,
		Build:              coarseListModel.build,
		Spec:               coarseListModel.spec,
	}
}
