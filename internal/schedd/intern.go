package schedd

import (
	"bytes"
	"crypto/sha256"

	"reassign/internal/api"
	"reassign/internal/dag"
)

// workflowIntern builds inline workflow documents through a bounded
// content-addressed table, so a DAG submitted again — the paper's
// premise: the same workflow, run after run — is parsed once.
//
// The key is SHA-256 over (format, source). It is a cryptographic
// digest, as api.StructureSignature is, because submissions come from
// different tenants and a collision would silently schedule the wrong
// DAG. The value is the validated *dag.Workflow, shared read-only by
// every job that submitted those bytes: nothing downstream of
// handleSubmit mutates a workflow (replica learners already share
// one). Only documents that parsed are stored, a racing duplicate
// parse of a new document is allowed (last put wins; both results are
// equivalent), and evicting an entry never affects a job that already
// holds the pointer.
type workflowIntern struct {
	*lru[[sha256.Size]byte, *dag.Workflow]
}

func newWorkflowIntern(maxEntries int) workflowIntern {
	return workflowIntern{newLRU[[sha256.Size]byte, *dag.Workflow](maxEntries)}
}

// build returns spec's workflow: the interned one when this inline
// document has been built before, else spec.Build()'s — with the same
// typed errors — stored for the next submission. Synthetic specs (and
// unknown formats, which Build rejects) bypass the table. scratch is
// overwritten: the key is hashed from one contiguous copy of format
// and source laid out in it, which costs no allocation when scratch
// already held the request body that source was decoded from.
func (t workflowIntern) build(spec api.WorkflowSpec, scratch *bytes.Buffer) (*dag.Workflow, error) {
	if spec.Format != "dax" && spec.Format != "wfjson" {
		return spec.Build()
	}
	scratch.Reset()
	scratch.WriteString(spec.Format)
	scratch.WriteByte(0)
	scratch.WriteString(spec.Source)
	key := sha256.Sum256(scratch.Bytes())
	if w, ok := t.get(key); ok {
		return w, nil
	}
	w, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t.put(key, w)
	return w, nil
}
