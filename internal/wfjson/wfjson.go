// Package wfjson reads and writes a pragmatic subset of the WfCommons
// WfFormat (the JSON successor of the Pegasus DAX traces this paper's
// generation of papers used): a workflow object with a task
// specification (ids, parents/children, input/output files) and an
// execution section carrying measured runtimes.
//
// Supported subset: schemaVersion, workflow.specification.tasks[],
// workflow.specification.files[], workflow.execution.tasks[] with
// runtimeInSeconds. Everything else round-trips through writers as
// omitted fields.
package wfjson

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"reassign/internal/dag"
)

// Document is the top-level WfFormat object.
type Document struct {
	Name          string   `json:"name"`
	SchemaVersion string   `json:"schemaVersion"`
	Workflow      Workflow `json:"workflow"`
}

// Workflow splits static structure from measured execution.
type Workflow struct {
	Specification Specification `json:"specification"`
	Execution     Execution     `json:"execution"`
}

// Specification is the static task graph.
type Specification struct {
	Tasks []SpecTask `json:"tasks"`
	Files []SpecFile `json:"files,omitempty"`
}

// SpecTask is one task of the specification.
type SpecTask struct {
	Name        string   `json:"name"`
	ID          string   `json:"id"`
	Parents     []string `json:"parents"`
	Children    []string `json:"children"`
	InputFiles  []string `json:"inputFiles,omitempty"`
	OutputFiles []string `json:"outputFiles,omitempty"`
}

// SpecFile declares a file and its size.
type SpecFile struct {
	ID          string `json:"id"`
	SizeInBytes int64  `json:"sizeInBytes"`
}

// Execution carries per-task measurements.
type Execution struct {
	Tasks []ExecTask `json:"tasks"`
}

// ExecTask is one task's measured execution.
type ExecTask struct {
	ID               string  `json:"id"`
	RuntimeInSeconds float64 `json:"runtimeInSeconds"`
}

// Decode converts a parsed document into a dag workflow.
func Decode(doc *Document) (*dag.Workflow, error) {
	if len(doc.Workflow.Specification.Tasks) == 0 {
		return nil, fmt.Errorf("wfjson: document %q has no tasks", doc.Name)
	}
	name := doc.Name
	if name == "" {
		name = "workflow"
	}
	runtimes := make(map[string]float64, len(doc.Workflow.Execution.Tasks))
	for _, et := range doc.Workflow.Execution.Tasks {
		if et.RuntimeInSeconds < 0 {
			return nil, fmt.Errorf("wfjson: task %q has negative runtime", et.ID)
		}
		runtimes[et.ID] = et.RuntimeInSeconds
	}
	sizes := make(map[string]int64, len(doc.Workflow.Specification.Files))
	for _, f := range doc.Workflow.Specification.Files {
		sizes[f.ID] = f.SizeInBytes
	}
	w := dag.New(name)
	for _, st := range doc.Workflow.Specification.Tasks {
		rt, ok := runtimes[st.ID]
		if !ok {
			return nil, fmt.Errorf("wfjson: task %q has no execution runtime", st.ID)
		}
		a, err := w.Add(st.ID, st.Name, rt)
		if err != nil {
			return nil, fmt.Errorf("wfjson: %w", err)
		}
		for _, fid := range st.InputFiles {
			a.Inputs = append(a.Inputs, dag.File{Name: fid, Size: sizes[fid]})
		}
		for _, fid := range st.OutputFiles {
			a.Outputs = append(a.Outputs, dag.File{Name: fid, Size: sizes[fid]})
		}
	}
	// Edges from the children lists; parents lists are validated for
	// consistency.
	for _, st := range doc.Workflow.Specification.Tasks {
		for _, c := range st.Children {
			if err := w.AddDep(st.ID, c); err != nil {
				return nil, fmt.Errorf("wfjson: %w", err)
			}
		}
	}
	for _, st := range doc.Workflow.Specification.Tasks {
		for _, p := range st.Parents {
			if !w.HasDep(p, st.ID) {
				return nil, fmt.Errorf("wfjson: task %q lists parent %q but %q has no matching child entry",
					st.ID, p, p)
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("wfjson: %w", err)
	}
	return w, nil
}

// Encode converts a dag workflow into a WfFormat document.
func Encode(w *dag.Workflow) *Document {
	doc := &Document{
		Name:          w.Name,
		SchemaVersion: "1.4",
	}
	fileSizes := make(map[string]int64)
	for _, a := range w.Activations() {
		st := SpecTask{
			Name:     a.Activity,
			ID:       a.ID,
			Parents:  []string{},
			Children: []string{},
		}
		for _, p := range a.Parents() {
			st.Parents = append(st.Parents, p.ID)
		}
		for _, c := range a.Children() {
			st.Children = append(st.Children, c.ID)
		}
		sort.Strings(st.Parents)
		sort.Strings(st.Children)
		for _, f := range a.Inputs {
			st.InputFiles = append(st.InputFiles, f.Name)
			fileSizes[f.Name] = f.Size
		}
		for _, f := range a.Outputs {
			st.OutputFiles = append(st.OutputFiles, f.Name)
			fileSizes[f.Name] = f.Size
		}
		doc.Workflow.Specification.Tasks = append(doc.Workflow.Specification.Tasks, st)
		doc.Workflow.Execution.Tasks = append(doc.Workflow.Execution.Tasks, ExecTask{
			ID:               a.ID,
			RuntimeInSeconds: a.Runtime,
		})
	}
	ids := make([]string, 0, len(fileSizes))
	for id := range fileSizes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		doc.Workflow.Specification.Files = append(doc.Workflow.Specification.Files,
			SpecFile{ID: id, SizeInBytes: fileSizes[id]})
	}
	return doc
}

// Read parses a WfFormat JSON stream into a workflow. Only whitespace
// may follow the document.
func Read(r io.Reader) (*dag.Workflow, error) {
	var doc Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("wfjson: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("wfjson: data after the document at offset %d", dec.InputOffset())
	}
	return Decode(&doc)
}

// Write serialises a workflow as WfFormat JSON.
func Write(w io.Writer, wf *dag.Workflow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(Encode(wf))
}

// ReadFile parses the WfFormat file at path.
func ReadFile(path string) (*dag.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile serialises a workflow to the WfFormat file at path.
func WriteFile(path string, wf *dag.Workflow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, wf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
