package benchsuite

import (
	"math/rand"
	"testing"

	"reassign/internal/provenance"
	"reassign/internal/randsrc"
	"reassign/internal/trace"
)

// ProvenanceStore benchmarks recording one run's provenance the way
// the exec master does: Grow for the workflow's size, then one attempt
// and one execution row per activation, each stamped by the store,
// then All — the copy a daemon job compacts. Its allocation count is
// the gate on the pre-size (without it the two slices double their way
// up) and on the int64 wall stamp (a formatted string would cost one
// allocation per row).
func ProvenanceStore(acts int) func(*testing.B) {
	return func(b *testing.B) {
		w := trace.CyberShake(rand.New(randsrc.New(1)), acts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := provenance.NewStore()
			s.Grow(w.Len(), w.Len())
			for _, a := range w.Activations() {
				at := float64(a.Index)
				s.AddAttempt(provenance.Attempt{
					RunID: "bench", TaskID: a.ID, Activity: a.Activity,
					Number: 1, VMID: a.Index % 9, StartAt: at, EndAt: at + a.Runtime, Outcome: "ok",
				})
				s.Add(provenance.Execution{
					WorkflowName: w.Name, RunID: "bench", TaskID: a.ID, Activity: a.Activity,
					VMID: a.Index % 9, VMType: "t2.micro", ReadyAt: at, StartAt: at, FinishAt: at + a.Runtime,
					Attempts: 1, Success: true,
				})
			}
			if len(s.All()) != w.Len() {
				b.Fatal("store lost records")
			}
		}
	}
}
