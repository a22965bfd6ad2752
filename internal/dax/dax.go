// Package dax reads and writes Pegasus DAX workflow descriptions —
// the XML format published by the Pegasus Workflow Generator that the
// paper's Montage traces use — and converts them to and from the dag
// model.
//
// The subset implemented covers everything the generator emits:
// <job> elements with id/namespace/name/runtime, nested <uses>
// file declarations with link direction and size, and <child>/<parent>
// dependency declarations.
package dax

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"reassign/internal/dag"
)

// xmlAdag mirrors the <adag> document element.
type xmlAdag struct {
	XMLName  xml.Name   `xml:"adag"`
	Xmlns    string     `xml:"xmlns,attr,omitempty"`
	Version  string     `xml:"version,attr,omitempty"`
	Name     string     `xml:"name,attr"`
	JobCount string     `xml:"jobCount,attr,omitempty"`
	Jobs     []xmlJob   `xml:"job"`
	Children []xmlChild `xml:"child"`
}

type xmlJob struct {
	ID        string       `xml:"id,attr"`
	Namespace string       `xml:"namespace,attr,omitempty"`
	Name      string       `xml:"name,attr"`
	Version   string       `xml:"version,attr,omitempty"`
	Runtime   string       `xml:"runtime,attr"`
	Argument  *xmlArgument `xml:"argument"`
	Uses      []xmlUses    `xml:"uses"`
}

// xmlArgument captures a job's <argument> element: mixed content of
// text and <file>/<filename> references, flattened to an argv the
// execution stage's command runner can exec directly.
type xmlArgument struct {
	Argv []string
}

// UnmarshalXML implements xml.Unmarshaler: character data is kept
// verbatim and nested file references contribute their file name,
// then the whole is split on whitespace.
func (a *xmlArgument) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var buf strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.CharData:
			buf.Write(t)
		case xml.StartElement:
			for _, attr := range t.Attr {
				if attr.Name.Local == "file" || attr.Name.Local == "name" {
					buf.WriteString(" ")
					buf.WriteString(attr.Value)
					buf.WriteString(" ")
					break
				}
			}
			if err := d.Skip(); err != nil {
				return err
			}
		case xml.EndElement:
			if t.Name == start.Name {
				a.Argv = strings.Fields(buf.String())
				return nil
			}
		}
	}
}

// MarshalXML implements xml.Marshaler: the argv joined on spaces.
func (a *xmlArgument) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	return e.EncodeElement(strings.Join(a.Argv, " "), start)
}

type xmlUses struct {
	File string `xml:"file,attr"`
	Link string `xml:"link,attr"`
	Size string `xml:"size,attr,omitempty"`
}

type xmlChild struct {
	Ref     string      `xml:"ref,attr"`
	Parents []xmlParent `xml:"parent"`
}

type xmlParent struct {
	Ref string `xml:"ref,attr"`
}

// Read parses a DAX document into a workflow. Only whitespace,
// comments and processing instructions may follow the document element.
func Read(r io.Reader) (*dag.Workflow, error) {
	var doc xmlAdag
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dax: decode: %w", err)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dax: after the document: %w", err)
		}
		switch t := tok.(type) {
		case xml.Comment, xml.ProcInst:
			continue
		case xml.CharData:
			if len(bytes.TrimSpace(t)) == 0 {
				continue
			}
		}
		return nil, fmt.Errorf("dax: data after the document at offset %d", dec.InputOffset())
	}
	name := doc.Name
	if name == "" {
		name = "workflow"
	}
	w := dag.New(name)
	for _, j := range doc.Jobs {
		rt, err := parseRuntime(j.Runtime)
		if err != nil {
			return nil, fmt.Errorf("dax: job %q: %w", j.ID, err)
		}
		a, err := w.Add(j.ID, j.Name, rt)
		if err != nil {
			return nil, fmt.Errorf("dax: %w", err)
		}
		if j.Argument != nil {
			a.Args = j.Argument.Argv
		}
		for _, u := range j.Uses {
			size := int64(0)
			if u.Size != "" {
				size, err = strconv.ParseInt(u.Size, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("dax: job %q file %q: bad size %q", j.ID, u.File, u.Size)
				}
			}
			f := dag.File{Name: u.File, Size: size}
			switch u.Link {
			case "input":
				a.Inputs = append(a.Inputs, f)
			case "output":
				a.Outputs = append(a.Outputs, f)
			default:
				return nil, fmt.Errorf("dax: job %q file %q: unknown link %q", j.ID, u.File, u.Link)
			}
		}
	}
	for _, c := range doc.Children {
		for _, p := range c.Parents {
			if err := w.AddDep(p.Ref, c.Ref); err != nil {
				return nil, fmt.Errorf("dax: %w", err)
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("dax: %w", err)
	}
	return w, nil
}

func parseRuntime(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing runtime")
	}
	rt, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad runtime %q", s)
	}
	if rt < 0 {
		return 0, fmt.Errorf("negative runtime %v", rt)
	}
	return rt, nil
}

// ReadFile parses the DAX file at path.
func ReadFile(path string) (*dag.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write serialises a workflow as a DAX document.
func Write(w io.Writer, wf *dag.Workflow) error {
	doc := xmlAdag{
		Xmlns:    "http://pegasus.isi.edu/schema/DAX",
		Version:  "2.1",
		Name:     wf.Name,
		JobCount: strconv.Itoa(wf.Len()),
	}
	for _, a := range wf.Activations() {
		j := xmlJob{
			ID:        a.ID,
			Namespace: wf.Name,
			Name:      a.Activity,
			Version:   "1.0",
			Runtime:   strconv.FormatFloat(a.Runtime, 'f', -1, 64),
		}
		if len(a.Args) > 0 {
			j.Argument = &xmlArgument{Argv: a.Args}
		}
		for _, f := range a.Inputs {
			j.Uses = append(j.Uses, xmlUses{File: f.Name, Link: "input", Size: strconv.FormatInt(f.Size, 10)})
		}
		for _, f := range a.Outputs {
			j.Uses = append(j.Uses, xmlUses{File: f.Name, Link: "output", Size: strconv.FormatInt(f.Size, 10)})
		}
		doc.Jobs = append(doc.Jobs, j)
	}
	// One <child> element per activation with parents, parents sorted
	// for deterministic output.
	for _, a := range wf.Activations() {
		ps := a.Parents()
		if len(ps) == 0 {
			continue
		}
		c := xmlChild{Ref: a.ID}
		ids := make([]string, len(ps))
		for i, p := range ps {
			ids[i] = p.ID
		}
		sort.Strings(ids)
		for _, id := range ids {
			c.Parents = append(c.Parents, xmlParent{Ref: id})
		}
		doc.Children = append(doc.Children, c)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("dax: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// WriteFile serialises a workflow to the DAX file at path.
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
