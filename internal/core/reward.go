// Package core implements ReASSIgN (Rl-based Activation Scheduling of
// ScIeNtific workflows), the paper's contribution: a tabular
// Q-learning scheduler over (activation, VM) schedule actions, with
// the performance-index reward of §III.B and the episode loop of
// Algorithm 2.
package core

import "reassign/internal/sim"

// PerfIndex computes the paper's performance index te*μ + (1-μ)*tf
// (Eq. 4/5 applied to a single observation or to means). μ balances
// total execution time against queue time.
func PerfIndex(te, tf, mu float64) float64 {
	return te*mu + (1-mu)*tf
}

// VMPerfIndex computes \overline{Pi_j} (Eq. 4): the performance index
// of a VM over the mean execution and queue times of every activation
// it has executed.
func VMPerfIndex(s sim.VMStats, mu float64) float64 {
	return PerfIndex(s.MeanExec(), s.MeanWait(), mu)
}

// GlobalPerfIndex computes \overline{Pw} (Eq. 5) over all finished
// activations.
func GlobalPerfIndex(global sim.VMStats, mu float64) float64 {
	return PerfIndex(global.MeanExec(), global.MeanWait(), mu)
}

// AppendPerfIndices appends \overline{Pi_j} for every VM that has
// executed at least one activation to dst and returns it. Callers on
// the hot path pass a reused buffer to avoid allocating per reward.
func AppendPerfIndices(dst []float64, vms []*sim.VMState, mu float64) []float64 {
	for _, v := range vms {
		if s := v.Stats(); s.N > 0 {
			dst = append(dst, VMPerfIndex(s, mu))
		}
	}
	return dst
}

// CrispReward computes r_i (Eq. 6): -1 when the VM's mean performance
// index is worse (larger) than the global index plus one standard
// deviation, +1 otherwise. Lower indices are better — they mean the
// VM turns activations around faster.
func CrispReward(vmIndex, globalIndex, stdv float64) float64 {
	if vmIndex > globalIndex+stdv {
		return -1
	}
	return 1
}

// SmoothReward folds the crisp partial reward into the running reward:
// r^t = r^{t-1} + ρ·(r_i − r^{t-1}). ρ weighs the new observation
// against the history; the update rewards decisions that keep
// improving workflow efficiency.
func SmoothReward(prev, crisp, rho float64) float64 {
	return prev + rho*(crisp-prev)
}
