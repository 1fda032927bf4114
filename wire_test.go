package qmatch_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qmatch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// complexPairXSD builds the 1:n split example (AuthorName ↔ FirstName +
// LastName) so the golden file covers ComplexCorrespondence too.
func complexPairXSD(t *testing.T) (src, tgt *qmatch.Schema) {
	t.Helper()
	src, err := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Record"><xs:complexType><xs:sequence>
	    <xs:element name="AuthorName" type="xs:string"/>
	  </xs:sequence></xs:complexType></xs:element></xs:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err = qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Entry"><xs:complexType><xs:sequence>
	    <xs:element name="Author"><xs:complexType><xs:sequence>
	      <xs:element name="FirstName" type="xs:string"/>
	      <xs:element name="LastName" type="xs:string"/>
	    </xs:sequence></xs:complexType></xs:element>
	  </xs:sequence></xs:complexType></xs:element></xs:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

// TestWireFormatGolden pins the JSON wire format of every public
// serialized type — Report, Correspondence, ComplexCorrespondence,
// Evaluation — against a golden file. A diff here means the stable wire
// format changed; update deliberately with `go test -run WireFormat
// -update ./` and call it out in DESIGN.md.
func TestWireFormatGolden(t *testing.T) {
	src, tgt := poPairXSD(t)
	report := qmatch.Match(src, tgt)
	eval := qmatch.Evaluate(report, [][2]string{
		{"PO/OrderNo", "PurchaseOrder/OrderNo"},
		{"PO/PurchaseDate", "PurchaseOrder/Date"},
	})
	cSrc, cTgt := complexPairXSD(t)
	cReport := qmatch.Match(cSrc, cTgt)
	complexes := qmatch.MatchComplex(cSrc, cTgt, cReport)
	if len(complexes) == 0 {
		t.Fatal("complex pass found nothing; golden would not cover ComplexCorrespondence")
	}

	doc := struct {
		Report     *qmatch.Report                 `json:"report"`
		Complex    []qmatch.ComplexCorrespondence `json:"complex"`
		Evaluation qmatch.Evaluation              `json:"evaluation"`
	}{report, complexes, eval}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "wire_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

func TestReportJSONWireKeys(t *testing.T) {
	src, tgt := poPairXSD(t)
	report := qmatch.Match(src, tgt)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"algorithm"`, `"correspondences"`, `"treeQoM"`, `"source"`, `"target"`, `"score"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("WriteJSON output missing wire key %s:\n%s", key, buf.String())
		}
	}
	back, err := qmatch.ReadReportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, report) {
		t.Fatal("JSON round trip lost data")
	}
}

// TestReadReportJSONLegacyKeys keeps old report files readable: Go's JSON
// decoding matches keys case-insensitively, so pre-wire-format files with
// capitalized field names still load.
func TestReadReportJSONLegacyKeys(t *testing.T) {
	legacy := `{
  "Algorithm": "hybrid",
  "Correspondences": [{"Source": "a", "Target": "b", "Score": 0.9}],
  "TreeQoM": 0.8
}`
	r, err := qmatch.ReadReportJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "hybrid" || r.TreeQoM != 0.8 ||
		len(r.Correspondences) != 1 || r.Correspondences[0].Source != "a" {
		t.Fatalf("legacy report misread: %+v", r)
	}
}
