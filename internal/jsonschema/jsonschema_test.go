package jsonschema

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"qmatch/internal/xmltree"
)

func parse(t *testing.T, doc string) *xmltree.Node {
	t.Helper()
	tree, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v\ndoc: %s", err, doc)
	}
	return tree
}

const poSchema = `{
  "title": "PurchaseOrder",
  "type": "object",
  "required": ["orderNo", "lines"],
  "properties": {
    "orderNo": {"type": "integer"},
    "date": {"type": "string", "format": "date"},
    "lines": {
      "type": "array",
      "items": {
        "type": "object",
        "required": ["sku"],
        "properties": {
          "sku": {"type": "string"},
          "quantity": {"type": "integer"},
          "price": {"type": "number"}
        }
      }
    }
  }
}`

func TestParsePurchaseOrder(t *testing.T) {
	tree := parse(t, poSchema)
	if tree.Label != "PurchaseOrder" {
		t.Fatalf("root label = %q, want PurchaseOrder", tree.Label)
	}
	if got := len(tree.Children); got != 3 {
		t.Fatalf("root has %d children, want 3:\n%s", got, tree.Dump())
	}
	// Document order must be preserved: orderNo, date, lines.
	for i, want := range []string{"orderNo", "date", "lines"} {
		if tree.Children[i].Label != want {
			t.Errorf("child %d = %q, want %q", i, tree.Children[i].Label, want)
		}
		if tree.Children[i].Props.Order != i+1 {
			t.Errorf("child %q order = %d, want %d", want, tree.Children[i].Props.Order, i+1)
		}
	}
	orderNo := tree.Children[0]
	if orderNo.Props.Type != "integer" || orderNo.Props.MinOccurs != 1 {
		t.Errorf("orderNo props = %+v, want integer required", orderNo.Props)
	}
	date := tree.Children[1]
	if date.Props.Type != "date" || date.Props.MinOccurs != 0 {
		t.Errorf("date props = %+v, want optional date (format refinement)", date.Props)
	}
	lines := tree.Children[2]
	if lines.Props.MaxOccurs != xmltree.Unbounded {
		t.Errorf("lines maxOccurs = %d, want unbounded", lines.Props.MaxOccurs)
	}
	if got := len(lines.Children); got != 3 {
		t.Fatalf("lines has %d children, want 3 (items object expanded in place)", got)
	}
	if lines.Children[0].Label != "sku" || lines.Children[0].Props.MinOccurs != 1 {
		t.Errorf("lines.sku = %+v, want required leaf", lines.Children[0].Props)
	}
	if lines.Children[2].Props.Type != "decimal" {
		t.Errorf("price type = %q, want decimal (number mapping)", lines.Children[2].Props.Type)
	}
}

func TestParseOrderPreserved(t *testing.T) {
	// A property order that would differ under map iteration.
	doc := `{"type":"object","properties":{"z":{"type":"string"},"a":{"type":"string"},"m":{"type":"string"}}}`
	tree := parse(t, doc)
	want := []string{"z", "a", "m"}
	for i, w := range want {
		if tree.Children[i].Label != w {
			t.Fatalf("children order = %v, want %v", tree.Children, want)
		}
	}
}

func TestParseRefAndCycle(t *testing.T) {
	doc := `{
	  "title": "Tree",
	  "type": "object",
	  "properties": {
	    "name": {"type": "string"},
	    "left": {"$ref": "#/definitions/node"},
	    "addr": {"$ref": "#/definitions/address"}
	  },
	  "definitions": {
	    "node": {
	      "type": "object",
	      "properties": {
	        "value": {"type": "integer"},
	        "next": {"$ref": "#/definitions/node"}
	      }
	    },
	    "address": {
	      "type": "object",
	      "required": ["city"],
	      "properties": {"city": {"type": "string"}, "zip": {"type": "string"}}
	    }
	  }
	}`
	tree := parse(t, doc)
	left := tree.Find("Tree/left")
	if left == nil {
		t.Fatalf("no Tree/left in:\n%s", tree.Dump())
	}
	// One expansion level: left has value and next; the recursive next
	// stops expanding (cycle cut-off), so it is a leaf.
	next := tree.Find("Tree/left/next")
	if next == nil || !next.IsLeaf() {
		t.Fatalf("cycle not cut off at Tree/left/next:\n%s", tree.Dump())
	}
	city := tree.Find("Tree/addr/city")
	if city == nil || city.Props.MinOccurs != 1 {
		t.Fatalf("ref target's required not honored:\n%s", tree.Dump())
	}
	// definitions must not appear as children of the root.
	if tree.Find("Tree/definitions") != nil {
		t.Fatal("definitions leaked into the tree")
	}
}

func TestParseOneOfAnyOfFlattened(t *testing.T) {
	doc := `{
	  "title": "Contact",
	  "type": "object",
	  "properties": {
	    "via": {
	      "oneOf": [
	        {"type": "object", "required": ["email"], "properties": {"email": {"type": "string"}}},
	        {"type": "object", "properties": {"phone": {"type": "string"}}}
	      ]
	    }
	  }
	}`
	tree := parse(t, doc)
	via := tree.Find("Contact/via")
	if via == nil || len(via.Children) != 2 {
		t.Fatalf("oneOf branches not flattened:\n%s", tree.Dump())
	}
	for _, c := range via.Children {
		if c.Props.MinOccurs != 0 {
			t.Errorf("oneOf child %q not optional: %+v", c.Label, c.Props)
		}
	}
}

func TestParseScalarKeywords(t *testing.T) {
	doc := `{"type":"object","properties":{
	  "kind": {"enum": ["a","b"]},
	  "version": {"const": 2},
	  "region": {"type": "string", "default": "eu"},
	  "maybe": {"type": ["string", "null"]}
	}}`
	tree := parse(t, doc)
	if got := tree.Children[0].Props.Type; got != "token" {
		t.Errorf("enum type = %q, want token", got)
	}
	if got := tree.Children[1].Props.Fixed; got != "2" {
		t.Errorf("const fixed = %q, want 2", got)
	}
	if got := tree.Children[2].Props.Default; got != "eu" {
		t.Errorf("default = %q, want eu", got)
	}
	maybe := tree.Children[3].Props
	if maybe.Type != "string" || !maybe.Nillable {
		t.Errorf("union type props = %+v, want nillable string", maybe)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not json":         `nope`,
		"scalar doc":       `42`,
		"array doc":        `[1,2]`,
		"trailing":         `{} {}`,
		"empty property":   `{"type":"object","properties":{"": {"type":"string"}}}`,
		"external ref":     `{"properties":{"x":{"$ref":"http://x/y#/z"}}}`,
		"dangling ref":     `{"properties":{"x":{"$ref":"#/definitions/missing"}}}`,
		"malformed ref":    `{"properties":{"x":{"$ref":"#definitions"}}}`,
		"non-object props": `{"type":"object","properties": 3}`,
	}
	for name, doc := range cases {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s: no error for %s", name, doc)
		}
	}
}

func TestParseDepthBounded(t *testing.T) {
	deep := strings.Repeat(`{"properties":{"a":`, maxDepth) + `{}` + strings.Repeat(`}}`, maxDepth)
	if _, err := ParseString(deep); err == nil {
		t.Fatal("no error for a document nested past the depth bound")
	}
}

func TestParseTupleItems(t *testing.T) {
	doc := `{"title":"T","type":"object","properties":{
	  "pair": {"type":"array","items":[{"type":"integer"},{"type":"string"}]}
	}}`
	tree := parse(t, doc)
	pair := tree.Find("T/pair")
	if pair == nil || len(pair.Children) != 2 {
		t.Fatalf("tuple items not expanded:\n%s", tree.Dump())
	}
	if pair.Children[0].Props.Type != "integer" || pair.Children[1].Props.Type != "string" {
		t.Fatalf("tuple entry types wrong:\n%s", tree.Dump())
	}
}

// Levels must come out consistent with nesting, since the level axis of
// the QoM model reads them directly.
func TestParseLevels(t *testing.T) {
	tree := parse(t, poSchema)
	if l := tree.Level(); l != 0 {
		t.Fatalf("root level = %d", l)
	}
	sku := tree.Find("PurchaseOrder/lines/sku")
	if sku == nil || sku.Level() != 2 {
		t.Fatalf("sku level wrong:\n%s", tree.Dump())
	}
}

// A DAG of definitions each referencing the next twice would expand to
// 2^21 nodes from a ~2 KB document; the builder must refuse it with the
// typed bound error instead of building the tree.
func TestExpansionBombRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"title": "Bomb", "$ref": "#/definitions/d0", "definitions": {`)
	const levels = 20
	for i := 0; i < levels; i++ {
		fmt.Fprintf(&b, `"d%d": {"type": "object", "properties": {"a": {"$ref": "#/definitions/d%d"}, "b": {"$ref": "#/definitions/d%d"}}},`, i, i+1, i+1)
	}
	fmt.Fprintf(&b, `"d%d": {"type": "string"}}}`, levels)
	_, err := ParseString(b.String())
	if !errors.Is(err, xmltree.ErrTooLarge) || !strings.Contains(err.Error(), fmt.Sprintf("expands past %d nodes", maxNodes)) {
		t.Fatalf("ParseString(bomb) error = %v, want the typed %d-node bound", err, maxNodes)
	}
}
