package core

import (
	"fmt"
	"math"
	"math/rand"

	"reassign/internal/cloud"
	"reassign/internal/dag"
	"reassign/internal/estimate"
	"reassign/internal/provenance"
	"reassign/internal/randsrc"
	"reassign/internal/rl"
)

// SeedTable builds a Q table whose initial values come from
// provenance history instead of uniform noise — the paper's
// cross-execution loop: execution provenance feeds the next learning
// run. Every (activation, VM) cell is set to tmin/t, where t is the
// estimator's predicted execution time of the activation on the VM
// (observed (activity, VM-type) means with nominal-runtime fallback)
// and tmin the best prediction across the fleet. The best VM for each
// activation therefore starts at 1.0 — the top of the random-init
// span — and slower VMs proportionally lower, so greedy exploitation
// starts from history instead of noise while TD updates remain free
// to overturn it.
//
// seed drives the table's residual randomness: it is drawn only for
// cells outside the fleet rectangle, which SeedTable does not set.
func SeedTable(store *provenance.Store, w *dag.Workflow, fleet *cloud.Fleet, seed int64) (*rl.Table, error) {
	if w == nil || fleet == nil {
		return nil, fmt.Errorf("core: SeedTable needs a workflow and a fleet")
	}
	if w.Len() == 0 || fleet.Len() == 0 {
		return nil, fmt.Errorf("core: SeedTable on empty workflow or fleet")
	}
	est := estimate.New(cloud.Types())
	if store != nil {
		est.ObserveStore(store, "")
	}
	table := rl.NewTable(w.Len(), len(fleet.VMs), rand.New(randsrc.New(seed)), 1.0)
	preds := make([]float64, fleet.Len())
	for _, a := range w.Activations() {
		tmin := math.Inf(1)
		for i, vm := range fleet.VMs {
			t := est.Predict(a, vm)
			if t <= 0 {
				t = 1e-9
			}
			preds[i] = t
			if t < tmin {
				tmin = t
			}
		}
		for i, vm := range fleet.VMs {
			table.Set(rl.Key{Task: a.Index, VM: vm.ID}, tmin/preds[i])
		}
	}
	return table, nil
}

// WithProvenanceSeed initialises the learner's Q table from a
// provenance store via SeedTable — the cross-execution learning loop:
// a store written by the execution stage seeds the next learning run.
// The table is built once every option is applied, from the learner's
// final seed. Of WithTable and WithProvenanceSeed, the later one wins.
func WithProvenanceSeed(store *provenance.Store) Option {
	return func(l *Learner) error {
		if store == nil {
			return fmt.Errorf("core: WithProvenanceSeed(nil)")
		}
		l.table, l.seedStore = nil, store
		return nil
	}
}
