// Package dtd parses Document Type Definitions into the schema tree model.
// XML schemas on the early-2000s web — the document corpus the QMatch
// paper's introduction targets — were predominantly DTDs, so a matcher
// substrate needs to ingest them. The supported subset covers what element
// matching consumes:
//
//	<!ELEMENT name (a, b*, (c | d)?, e+)>    content particles with , | ? * +
//	<!ELEMENT name (#PCDATA)>                text-only elements
//	<!ELEMENT name EMPTY> / ANY
//	<!ATTLIST name attr CDATA #REQUIRED ...> attributes incl. enumerations
//
// Parameter entities, notations and conditional sections are not
// supported and produce an error. Recursive element declarations stop
// expansion at the repeated element, mirroring the XSD parser.
package dtd

import (
	"fmt"
	"io"
	"strings"

	"qmatch/internal/xmltree"
)

// elementDecl is a raw <!ELEMENT> declaration.
type elementDecl struct {
	name    string
	content *particle // nil for EMPTY/ANY
	pcdata  bool
}

// attrDecl is one attribute of an <!ATTLIST> declaration.
type attrDecl struct {
	name     string
	typ      string // CDATA, ID, IDREF, NMTOKEN, enumeration → "token"
	required bool
	fixed    string
	dflt     string
}

// particle is a node of a content model: either a name reference or a
// group with a connector.
type particle struct {
	name     string      // set for leaf particles
	children []*particle // set for groups
	choice   bool        // group connector: true for |, false for ,
	min, max int         // occurrence from ? * + (default 1,1)
}

// Parse reads a DTD and returns the schema tree rooted at root. If root is
// empty, the first declared element is used.
func Parse(r io.Reader, root string) (*xmltree.Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtd: read: %w", err)
	}
	return ParseString(string(data), root)
}

// ParseString is Parse over a string.
func ParseString(src, root string) (*xmltree.Node, error) {
	p := &parser{src: src}
	elements, attrs, first, err := p.declarations()
	if err != nil {
		return nil, err
	}
	if root == "" {
		root = first
	}
	if root == "" {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	decl, ok := elements[root]
	if !ok {
		return nil, fmt.Errorf("dtd: root element %q not declared", root)
	}
	b := &builder{elements: elements, attrs: attrs, expanding: map[string]bool{}}
	return b.element(decl, xmltree.Properties{MinOccurs: 1, MaxOccurs: 1, Order: 1})
}

// parser splits the DTD into declarations.
type parser struct {
	src string
	pos int
}

func (p *parser) declarations() (map[string]*elementDecl, map[string][]attrDecl, string, error) {
	elements := map[string]*elementDecl{}
	attrs := map[string][]attrDecl{}
	first := ""
	for {
		p.skipSpaceAndComments()
		if p.pos >= len(p.src) {
			return elements, attrs, first, nil
		}
		if !strings.HasPrefix(p.src[p.pos:], "<!") {
			return nil, nil, "", fmt.Errorf("dtd: unexpected content at offset %d", p.pos)
		}
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return nil, nil, "", fmt.Errorf("dtd: unterminated declaration at offset %d", p.pos)
		}
		decl := p.src[p.pos+2 : p.pos+end]
		p.pos += end + 1
		fields := strings.Fields(decl)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "ELEMENT":
			e, err := parseElement(decl)
			if err != nil {
				return nil, nil, "", err
			}
			if _, dup := elements[e.name]; dup {
				return nil, nil, "", fmt.Errorf("dtd: element %q declared twice", e.name)
			}
			elements[e.name] = e
			if first == "" {
				first = e.name
			}
		case "ATTLIST":
			name, list, err := parseAttlist(decl)
			if err != nil {
				return nil, nil, "", err
			}
			attrs[name] = append(attrs[name], list...)
		case "ENTITY", "NOTATION":
			return nil, nil, "", fmt.Errorf("dtd: %s declarations are not supported", fields[0])
		default:
			return nil, nil, "", fmt.Errorf("dtd: unknown declaration %q", fields[0])
		}
	}
}

func (p *parser) skipSpaceAndComments() {
	for {
		for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
			p.pos++
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 3
			continue
		}
		return
	}
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// parseElement parses "ELEMENT name contentModel".
func parseElement(decl string) (*elementDecl, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(decl, "ELEMENT"))
	sp := strings.IndexFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '(' })
	if sp <= 0 {
		return nil, fmt.Errorf("dtd: malformed ELEMENT declaration %q", decl)
	}
	name := strings.TrimSpace(rest[:sp])
	model := strings.TrimSpace(rest[sp:])
	e := &elementDecl{name: name}
	switch model {
	case "EMPTY", "ANY":
		return e, nil
	}
	if !strings.HasPrefix(model, "(") {
		return nil, fmt.Errorf("dtd: element %q: malformed content model %q", name, model)
	}
	if strings.Contains(model, "#PCDATA") {
		e.pcdata = true
		// Mixed content (#PCDATA | a | b)* — pull out the names.
		inner := strings.Trim(model, "()*? \t\n")
		for _, part := range strings.Split(inner, "|") {
			part = strings.TrimSpace(part)
			if part == "" || part == "#PCDATA" {
				continue
			}
			leaf := &particle{name: part, min: 0, max: xmltree.Unbounded}
			if e.content == nil {
				e.content = &particle{choice: true, min: 1, max: 1}
			}
			e.content.children = append(e.content.children, leaf)
		}
		return e, nil
	}
	content, rest2, err := parseParticle(model)
	if err != nil {
		return nil, fmt.Errorf("dtd: element %q: %w", name, err)
	}
	if strings.TrimSpace(rest2) != "" {
		return nil, fmt.Errorf("dtd: element %q: trailing content %q", name, rest2)
	}
	e.content = content
	return e, nil
}

// parseParticle parses a particle starting at s: either "(...)" group or a
// name, followed by an optional occurrence suffix. Returns the remainder.
func parseParticle(s string) (*particle, string, error) {
	s = strings.TrimLeft(s, " \t\n\r")
	if s == "" {
		return nil, "", fmt.Errorf("empty particle")
	}
	var pt *particle
	if s[0] == '(' {
		group := &particle{min: 1, max: 1}
		rest := s[1:]
		sawSep := byte(0)
		for {
			child, r, err := parseParticle(rest)
			if err != nil {
				return nil, "", err
			}
			group.children = append(group.children, child)
			rest = strings.TrimLeft(r, " \t\n\r")
			if rest == "" {
				return nil, "", fmt.Errorf("unterminated group")
			}
			switch rest[0] {
			case ',', '|':
				if sawSep != 0 && sawSep != rest[0] {
					return nil, "", fmt.Errorf("mixed , and | in one group")
				}
				sawSep = rest[0]
				rest = rest[1:]
			case ')':
				group.choice = sawSep == '|'
				pt = group
				s = rest[1:]
			default:
				return nil, "", fmt.Errorf("unexpected %q in group", rest[0])
			}
			if pt != nil {
				break
			}
		}
	} else {
		i := 0
		for i < len(s) && !strings.ContainsRune("(),|?*+ \t\n\r", rune(s[i])) {
			i++
		}
		if i == 0 {
			return nil, "", fmt.Errorf("expected name, got %q", s)
		}
		pt = &particle{name: s[:i], min: 1, max: 1}
		s = s[i:]
	}
	// Occurrence suffix.
	if s != "" {
		switch s[0] {
		case '?':
			pt.min, pt.max = 0, 1
			s = s[1:]
		case '*':
			pt.min, pt.max = 0, xmltree.Unbounded
			s = s[1:]
		case '+':
			pt.min, pt.max = 1, xmltree.Unbounded
			s = s[1:]
		}
	}
	return pt, s, nil
}

// parseAttlist parses "ATTLIST element (attr type default)+".
func parseAttlist(decl string) (string, []attrDecl, error) {
	fields := strings.Fields(decl)
	if len(fields) < 2 {
		return "", nil, fmt.Errorf("dtd: malformed ATTLIST %q", decl)
	}
	element := fields[1]
	rest := fields[2:]
	var out []attrDecl
	for len(rest) > 0 {
		if len(rest) < 2 {
			return "", nil, fmt.Errorf("dtd: ATTLIST %s: truncated attribute definition", element)
		}
		a := attrDecl{name: rest[0]}
		typ := rest[1]
		consumed := 2
		if strings.HasPrefix(typ, "(") {
			// Enumeration possibly spanning fields: consume to ")".
			for !strings.HasSuffix(typ, ")") {
				if consumed >= len(rest) {
					return "", nil, fmt.Errorf("dtd: ATTLIST %s: unterminated enumeration", element)
				}
				typ += " " + rest[consumed]
				consumed++
			}
			a.typ = "token"
		} else {
			switch typ {
			case "CDATA":
				a.typ = "string"
			case "ID", "IDREF", "IDREFS", "NMTOKEN", "NMTOKENS", "ENTITY", "ENTITIES":
				a.typ = typ
			default:
				return "", nil, fmt.Errorf("dtd: ATTLIST %s: unknown attribute type %q", element, typ)
			}
		}
		if consumed >= len(rest) {
			return "", nil, fmt.Errorf("dtd: ATTLIST %s: missing default for %s", element, a.name)
		}
		def := rest[consumed]
		consumed++
		switch def {
		case "#REQUIRED":
			a.required = true
		case "#IMPLIED":
		case "#FIXED":
			if consumed >= len(rest) {
				return "", nil, fmt.Errorf("dtd: ATTLIST %s: #FIXED without value", element)
			}
			a.fixed = strings.Trim(rest[consumed], `"'`)
			consumed++
		default:
			a.dflt = strings.Trim(def, `"'`)
		}
		out = append(out, a)
		rest = rest[consumed:]
	}
	return element, out, nil
}

// maxNodes bounds the tree a DTD may expand to. Content models that
// reference the next element several times grow exponentially (ten levels
// of three expand a 600-byte DTD to ~177k nodes), so the builder counts the
// nodes it creates and fails once past the bound — the bound every
// front-end applies.
const maxNodes = xmltree.MaxNodes

// builder expands declarations into the tree.
type builder struct {
	elements  map[string]*elementDecl
	attrs     map[string][]attrDecl
	expanding map[string]bool
	nodes     int // nodes created so far, bounded by maxNodes
}

// newNode creates one tree node, failing once the DTD has expanded past
// maxNodes.
func (b *builder) newNode(label string, props xmltree.Properties) (*xmltree.Node, error) {
	b.nodes++
	if b.nodes > maxNodes {
		return nil, fmt.Errorf("dtd: %w: expands past %d nodes", xmltree.ErrTooLarge, maxNodes)
	}
	return xmltree.New(label, props), nil
}

func (b *builder) element(decl *elementDecl, props xmltree.Properties) (*xmltree.Node, error) {
	if decl.pcdata && decl.content == nil {
		props.Type = "string"
	}
	node, err := b.newNode(decl.name, props)
	if err != nil {
		return nil, err
	}
	if b.expanding[decl.name] {
		// Recursive content model: stop expansion.
		return node, nil
	}
	b.expanding[decl.name] = true
	defer delete(b.expanding, decl.name)

	for _, a := range b.attrs[decl.name] {
		ap := xmltree.Properties{
			Type:        a.typ,
			IsAttribute: true,
			MaxOccurs:   1,
			Fixed:       a.fixed,
			Default:     a.dflt,
		}
		if a.required {
			ap.MinOccurs = 1
			ap.Use = "required"
		} else {
			ap.Use = "optional"
		}
		attr, err := b.newNode(a.name, ap)
		if err != nil {
			return nil, err
		}
		node.Add(attr)
	}
	if decl.content != nil {
		if err := b.attach(node, decl.content, false); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// attach flattens a particle into node's children. Particles under a
// choice group become optional (minOccurs 0), matching how the XSD model
// treats alternatives as siblings.
func (b *builder) attach(node *xmltree.Node, pt *particle, inChoice bool) error {
	if pt.name != "" {
		child, ok := b.elements[pt.name]
		if !ok {
			return fmt.Errorf("dtd: element %q referenced but not declared", pt.name)
		}
		props := xmltree.Properties{MinOccurs: pt.min, MaxOccurs: pt.max}
		if inChoice && props.MinOccurs > 0 {
			props.MinOccurs = 0
		}
		cn, err := b.element(child, props)
		if err != nil {
			return err
		}
		node.Add(cn)
		return nil
	}
	for _, c := range pt.children {
		// A repeated group distributes its occurrence bound over its
		// members.
		merged := *c
		if pt.max == xmltree.Unbounded {
			merged.max = xmltree.Unbounded
		}
		if pt.min == 0 {
			merged.min = 0
		}
		if err := b.attach(node, &merged, inChoice || pt.choice); err != nil {
			return err
		}
	}
	return nil
}
