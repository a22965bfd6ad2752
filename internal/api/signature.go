package api

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// StructureSignature fingerprints a learning problem: the workflow's
// structure (activation IDs, activities, reference runtimes and
// dependency edges, all in index order) and the fleet's shape (VM IDs
// and types, in order). Two submissions with equal signatures define
// the same Q-table geometry and the same execution-time estimates, so
// a table learned for one warm-starts the other — the key of the
// daemon's cross-run continuation cache.
//
// The signature deliberately ignores the workflow's display name and
// every learning parameter: a Montage DAG resubmitted under a new
// name with different ε still hits the cache, while adding one edge
// or swapping a VM type misses.
//
// The hashed stream is appended into one buffer, written to the digest
// whenever it passes flushAt, so the digest and buffer stay on the
// stack and a call allocates only the returned string, whatever the
// workflow's size.
func StructureSignature(w *dag.Workflow, fleet *cloud.Fleet) string {
	const flushAt = 4096
	h := sha256.New()
	buf := make([]byte, 0, 2*flushAt)
	flush := func() {
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Len()))
	for _, a := range w.Activations() {
		buf = append(append(buf, a.ID...), 0)
		buf = append(append(buf, a.Activity...), 0)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Runtime))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(a.Parents())))
		for _, p := range a.Parents() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Index))
		}
		flush()
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fleet.Len()))
	for _, vm := range fleet.VMs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(vm.ID))
		buf = append(append(buf, vm.Type.Name...), 0)
		flush()
	}
	h.Write(buf)
	sum := h.Sum(buf[:0])
	text := sum[sha256.Size : sha256.Size+32]
	hex.Encode(text, sum[:16])
	return string(text)
}
