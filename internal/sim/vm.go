package sim

import (
	"fmt"

	"reassign/internal/cloud"
)

// VMState tracks one provisioned VM during a simulation. A VM exposes
// one execution slot per vCPU (SciCumulus's SCCore runs one MPI
// worker per core); the paper's binary idle/busy VM state maps to
// FreeSlots() > 0.
type VMState struct {
	VM    *cloud.VM
	Slots int // total slots = vCPUs

	busy  int
	stats VMStats

	// fileAt records which output files are already resident on this
	// VM, to skip transfer costs for locally produced inputs. It is
	// allocated lazily on the first output produced here.
	fileAt map[string]bool
}

// FreeSlots returns the number of unoccupied execution slots.
func (v *VMState) FreeSlots() int { return v.Slots - v.busy }

// Idle reports whether the VM can accept at least one activation —
// the paper's "idle" VM state.
func (v *VMState) Idle() bool { return v.busy < v.Slots }

// Stats returns the execution history aggregate for this VM.
func (v *VMState) Stats() VMStats { return v.stats }

// HasFile reports whether the named file was produced on this VM.
func (v *VMState) HasFile(name string) bool { return v.fileAt[name] }

func (v *VMState) acquire() {
	if v.busy >= v.Slots {
		panic(fmt.Sprintf("sim: %s over-committed", v.VM))
	}
	v.busy++
}

func (v *VMState) release() {
	if v.busy <= 0 {
		panic(fmt.Sprintf("sim: %s released while idle", v.VM))
	}
	v.busy--
}

func (v *VMState) String() string {
	return fmt.Sprintf("%s[%d/%d]", v.VM, v.busy, v.Slots)
}
