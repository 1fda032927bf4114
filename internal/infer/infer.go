// Package infer derives a schema tree from an XML instance document. The
// QMatch paper's motivating scenario is querying the open web, where most
// documents arrive without any schema; matching a query schema against
// such documents requires inferring one. The inference merges repeated
// sibling elements into occurrence-constrained declarations and infers
// leaf datatypes from their text values — enough structure for the four
// QoM axes.
package infer

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

import "qmatch/internal/xmltree"

// docNode is one element of the instance document.
type docNode struct {
	name     string
	attrs    []xml.Attr
	children []*docNode
	text     strings.Builder
}

// Infer reads an XML document and returns the inferred schema tree.
func Infer(r io.Reader) (*xmltree.Node, error) {
	root, err := parseDoc(r)
	if err != nil {
		return nil, err
	}
	node, err := new(inferrer).element([]*docNode{root})
	if err != nil {
		return nil, err
	}
	node.Props.MinOccurs, node.Props.MaxOccurs, node.Props.Order = 1, 1, 1
	return node, nil
}

// InferString is Infer over a string.
func InferString(s string) (*xmltree.Node, error) {
	return Infer(strings.NewReader(s))
}

func parseDoc(r io.Reader) (*docNode, error) {
	dec := xml.NewDecoder(r)
	var stack []*docNode
	var root *docNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("infer: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &docNode{name: t.Name.Local, attrs: t.Attr}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("infer: multiple document roots")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("infer: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write([]byte(t))
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("infer: empty document")
	}
	return root, nil
}

// maxNodes bounds the inferred tree — the bound every front-end applies.
// Merging repeated siblings keeps most trees far below it, but a document
// of distinct element names infers one node per element.
const maxNodes = xmltree.MaxNodes

// inferrer counts the nodes one inference creates.
type inferrer struct {
	nodes int
}

// newNode creates one schema node, failing once the inferred tree has
// grown past maxNodes.
func (in *inferrer) newNode(label string, props xmltree.Properties) (*xmltree.Node, error) {
	in.nodes++
	if in.nodes > maxNodes {
		return nil, fmt.Errorf("infer: %w: expands past %d nodes", xmltree.ErrTooLarge, maxNodes)
	}
	return xmltree.New(label, props), nil
}

// element merges every instance of one element name (under merged parent
// instances) into a single schema declaration.
func (in *inferrer) element(instances []*docNode) (*xmltree.Node, error) {
	name := instances[0].name
	node, err := in.newNode(name, xmltree.Properties{MinOccurs: 1, MaxOccurs: 1})
	if err != nil {
		return nil, err
	}

	// Attributes: required iff present on every instance; type inferred
	// from the observed values.
	attrOrder := []string{}
	attrVals := map[string][]string{}
	for _, inst := range instances {
		for _, a := range inst.attrs {
			if _, seen := attrVals[a.Name.Local]; !seen {
				attrOrder = append(attrOrder, a.Name.Local)
			}
			attrVals[a.Name.Local] = append(attrVals[a.Name.Local], a.Value)
		}
	}
	for _, an := range attrOrder {
		vals := attrVals[an]
		props := xmltree.Properties{
			Type:        inferType(vals),
			IsAttribute: true,
			MaxOccurs:   1,
		}
		if len(vals) == len(instances) {
			props.MinOccurs = 1
			props.Use = "required"
		} else {
			props.Use = "optional"
		}
		attr, err := in.newNode(an, props)
		if err != nil {
			return nil, err
		}
		node.Add(attr)
	}

	// Child elements: group by name in first-seen order; occurrence
	// constraints from per-instance counts.
	childOrder := []string{}
	childGroups := map[string][]*docNode{}
	counts := map[string][]int{} // per-instance counts
	for i, inst := range instances {
		_ = i
		local := map[string]int{}
		for _, c := range inst.children {
			if _, seen := childGroups[c.name]; !seen {
				childOrder = append(childOrder, c.name)
			}
			childGroups[c.name] = append(childGroups[c.name], c)
			local[c.name]++
		}
		for n := range childGroups {
			counts[n] = append(counts[n], local[n])
		}
	}
	// counts rows can be ragged for names first seen late; pad with the
	// number of instances processed before first sighting implicitly by
	// comparing lengths.
	for _, cn := range childOrder {
		group := childGroups[cn]
		child, err := in.element(group)
		if err != nil {
			return nil, err
		}
		minC, maxC := minMaxCounts(counts[cn], len(instances))
		child.Props.MinOccurs = minC
		if maxC > 1 {
			child.Props.MaxOccurs = xmltree.Unbounded
		} else {
			child.Props.MaxOccurs = 1
		}
		node.Add(child)
	}

	// Leaf type inference from text content.
	if len(childOrder) == 0 {
		var vals []string
		for _, inst := range instances {
			if v := strings.TrimSpace(inst.text.String()); v != "" {
				vals = append(vals, v)
			}
		}
		node.Props.Type = inferType(vals)
	}
	return node, nil
}

func minMaxCounts(counts []int, instances int) (minC, maxC int) {
	if len(counts) < instances {
		minC = 0 // absent from at least one instance
	} else {
		minC = counts[0]
	}
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	return minC, maxC
}

// inferType returns the most specific XSD type covering every observed
// value: integer ⊂ decimal; date / dateTime; boolean; fallback string.
// No observed values infer as string.
func inferType(vals []string) string {
	if len(vals) == 0 {
		return "string"
	}
	isInt, isDec, isBool, isDate, isDateTime := true, true, true, true, true
	for _, v := range vals {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			isDec = false
		}
		if v != "true" && v != "false" && v != "0" && v != "1" {
			isBool = false
		}
		if _, err := time.Parse("2006-01-02", v); err != nil {
			isDate = false
		}
		if _, err := time.Parse(time.RFC3339, v); err != nil {
			isDateTime = false
		}
	}
	switch {
	case isBool && !isInt:
		return "boolean"
	case isInt:
		return "integer"
	case isDec:
		return "decimal"
	case isDate:
		return "date"
	case isDateTime:
		return "dateTime"
	default:
		return "string"
	}
}
