package schedd

import (
	"bytes"
	"crypto/sha256"
	"strconv"
	"strings"

	"reassign/internal/api"
	"reassign/internal/api/jsonread"
	"reassign/internal/cloud"
	"reassign/internal/dag"
)

// workflowIntern builds workflows through a bounded content-addressed
// table, so a DAG submitted again — the paper's premise: the same
// workflow, run after run — is parsed or generated once.
//
// The key is SHA-256 over the spec's canonical form: (format, source)
// for an inline document, (family, nodes, seed) for a synthetic spec,
// which is a pure function of them. An inline source is keyed as it
// stood in the request body, between its quotes and still escaped, so
// a document seen before is never unescaped again; two escapings of
// one document (\u003c against <) are then two entries, an extra miss
// but never a wrong hit. The key is a cryptographic digest, as
// api.StructureSignature is, because submissions come from different
// tenants and a collision would silently schedule the wrong DAG. The
// value is the validated *dag.Workflow, shared read-only by every job
// that submitted that spec: nothing downstream of handleSubmit mutates
// a workflow (replica learners already share one). Only specs that
// built are stored, a racing duplicate build of a new spec is allowed
// (last put wins; both results are equivalent), and evicting an entry
// never affects a job that already holds the pointer.
type workflowIntern struct {
	*lru[[sha256.Size]byte, *dag.Workflow]
}

func newWorkflowIntern(maxEntries int) workflowIntern {
	return workflowIntern{newLRU[[sha256.Size]byte, *dag.Workflow](maxEntries)}
}

// build returns spec's workflow: the interned one when an equivalent
// spec has been built before, else spec.Build()'s — with the same typed
// errors — stored for the next submission. Specs without a format
// (and unknown formats), which Build rejects, bypass the table. source
// is an inline document's workflow.source as api.DecodeSubmit returned
// it, escaped; it is unescaped into spec.Source only to build on a
// miss. A synthetic spec's hash input is written into scratch, which
// costs no allocation when scratch already held the request body.
func (t workflowIntern) build(spec api.WorkflowSpec, source []byte, scratch *bytes.Buffer) (*dag.Workflow, error) {
	var key [sha256.Size]byte
	switch {
	case spec.Format == "dax" || spec.Format == "wfjson":
		h := sha256.New()
		h.Write([]byte(spec.Format))
		h.Write([]byte{0})
		h.Write(source)
		h.Sum(key[:0])
	case spec.Format == "synthetic" || spec.Format == "" && spec.Synthetic != nil:
		scratch.Reset()
		syntheticKey(scratch, spec.Synthetic)
		key = sha256.Sum256(scratch.Bytes())
	default:
		return spec.Build()
	}
	if w, ok := t.get(key); ok {
		return w, nil
	}
	if source != nil {
		spec.Source = jsonread.Unquote(source)
	}
	w, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t.put(key, w)
	return w, nil
}

// syntheticKey writes the canonical form of a synthetic spec into
// scratch, with the defaults api.WorkflowSpec.Build applies filled in,
// so two specs that share a key generate the same workflow.
func syntheticKey(scratch *bytes.Buffer, spec *api.SyntheticSpec) {
	if spec == nil {
		spec = &api.SyntheticSpec{}
	}
	family, nodes := strings.ToLower(spec.Family), spec.Nodes
	if family == "" {
		family = "montage"
	}
	if nodes <= 0 {
		nodes = 50
	}
	scratch.WriteString("synthetic\x00")
	scratch.WriteString(family)
	scratch.WriteByte(0)
	scratch.Write(strconv.AppendInt(scratch.AvailableBuffer(), int64(nodes), 10))
	scratch.WriteByte(0)
	scratch.Write(strconv.AppendInt(scratch.AvailableBuffer(), spec.Seed, 10))
}

// fleetIntern builds fleets through a bounded table keyed by the
// spec's canonical form, so the jobs that ask for one fleet share one
// *cloud.Fleet instead of provisioning a copy each. Sharing is safe for
// the same reason as workflowIntern's: nothing downstream of
// handleSubmit mutates a fleet (the exec master keeps market
// replacement VMs in its own run state). Specs that fail to build are
// never stored.
type fleetIntern struct {
	*lru[string, *cloud.Fleet]
}

func newFleetIntern(maxEntries int) fleetIntern {
	return fleetIntern{newLRU[string, *cloud.Fleet](maxEntries)}
}

// build returns spec's fleet: the interned one when an equivalent spec
// has been built before, else spec.Build()'s — with the same typed
// errors — stored for the next submission.
func (t fleetIntern) build(spec api.FleetSpec) (*cloud.Fleet, error) {
	key := fleetKey(spec)
	if f, ok := t.get(key); ok {
		return f, nil
	}
	f, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t.put(key, f)
	return f, nil
}

// fleetKey is the canonical form of spec: the defaults Build applies
// are filled in and type names are quoted, so two specs that share a
// key build the same fleet.
func fleetKey(spec api.FleetSpec) string {
	if len(spec.Types) == 0 {
		preset, vcpus := strings.ToLower(spec.Preset), spec.VCPUs
		if preset == "" {
			preset = "table1"
		}
		if vcpus == 0 {
			vcpus = 16
		}
		return preset + "/" + strconv.Itoa(vcpus)
	}
	key := []byte("custom")
	for _, tc := range spec.Types {
		key = strconv.AppendQuote(append(key, '/'), tc.Type)
		key = strconv.AppendInt(append(key, '*'), int64(tc.Count), 10)
	}
	return string(key)
}
