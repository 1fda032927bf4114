package dtd

import (
	"testing"
	"testing/quick"
)

// The DTD parser must be total: random inputs error or parse, never panic.
func TestParseNeverPanics(t *testing.T) {
	prop := func(junk string) bool {
		_, _ = ParseString(junk, "")
		_, _ = ParseString("<!ELEMENT R ("+junk+")>", "R")
		_, _ = ParseString("<!ELEMENT R (#PCDATA)> <!ATTLIST R "+junk+">", "R")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMangled(t *testing.T) {
	base := `
<!ELEMENT PO (OrderNo, Lines)>
<!ELEMENT OrderNo (#PCDATA)>
<!ELEMENT Lines (Item+, Quantity?)>
<!ELEMENT Item (#PCDATA)>
<!ELEMENT Quantity (#PCDATA)>
<!ATTLIST PO id ID #REQUIRED>
`
	prop := func(pos uint16, b byte) bool {
		data := []byte(base)
		data[int(pos)%len(data)] = b
		_, _ = ParseString(string(data), "")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseDTD drives the DTD parser with arbitrary document/root pairs.
// The parser must stay total and any tree it accepts must be well-formed
// and within the node bound.
func FuzzParseDTD(f *testing.F) {
	f.Add(`<!ELEMENT PO (OrderNo, Lines)>
<!ELEMENT OrderNo (#PCDATA)>
<!ELEMENT Lines (Item+, Quantity?)>
<!ELEMENT Item (#PCDATA)>
<!ELEMENT Quantity (#PCDATA)>
<!ATTLIST PO id ID #REQUIRED>`, "")
	f.Add(`<!ELEMENT a (b|c)*> <!ELEMENT b EMPTY> <!ELEMENT c ANY>`, "a")
	f.Add(`<!ELEMENT r (#PCDATA)> <!ATTLIST r x CDATA #IMPLIED y (one|two) "one">`, "r")
	f.Add(``, ``)
	f.Add(`<!ELEMENT`, `missing`)
	f.Fuzz(func(t *testing.T, data, root string) {
		tree, err := ParseString(data, root)
		if err != nil {
			return
		}
		if tree == nil {
			t.Fatalf("nil tree with nil error for %q root %q", data, root)
		}
		if tree.Label == "" {
			t.Fatalf("parsed root has an empty label: %q root %q", data, root)
		}
		if size := tree.Size(); size > maxNodes {
			t.Fatalf("tree grew past the node bound: %d nodes", size)
		}
	})
}
