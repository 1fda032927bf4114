package qmatch_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qmatch"
)

const bookDTD = `
<!ELEMENT Book (Title, Author+, ISBN?, Year)>
<!ELEMENT Title (#PCDATA)>
<!ELEMENT Author (#PCDATA)>
<!ELEMENT ISBN (#PCDATA)>
<!ELEMENT Year (#PCDATA)>
<!ATTLIST Book lang CDATA #IMPLIED>
`

const bookXML = `<Book lang="en">
  <Title>Go in Practice</Title>
  <Author>A. Gopher</Author>
  <Author>B. Gopher</Author>
  <Year>2005</Year>
</Book>`

func TestParseDTDString(t *testing.T) {
	s, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" || s.Size() != 6 {
		t.Fatalf("schema = %s/%d", s.Name(), s.Size())
	}
}

func TestInferSchemaString(t *testing.T) {
	s, err := qmatch.InferSchemaString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" {
		t.Fatalf("name = %s", s.Name())
	}
	paths := s.Paths()
	if len(paths) != 5 { // Book, lang, Title, Author, Year
		t.Fatalf("paths = %v", paths)
	}
}

func TestCrossFormatMatching(t *testing.T) {
	// DTD-declared schema vs schema inferred from an instance document:
	// the cross-format scenario the paper's introduction motivates.
	dtdSchema, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := qmatch.InferSchemaString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	report := qmatch.Match(dtdSchema, inferred)
	if report.TreeQoM < 0.6 {
		t.Fatalf("cross-format QoM = %v", report.TreeQoM)
	}
	found := map[string]string{}
	for _, c := range report.Correspondences {
		found[c.Source] = c.Target
	}
	for _, want := range []string{"Book/Title", "Book/Author", "Book/Year"} {
		if found[want] == "" {
			t.Errorf("missing correspondence for %s (got %v)", want, found)
		}
	}
}

func TestLoadSchemaByExtension(t *testing.T) {
	dir := t.TempDir()
	dtdPath := filepath.Join(dir, "book.dtd")
	xmlPath := filepath.Join(dir, "book.xml")
	os.WriteFile(dtdPath, []byte(bookDTD), 0o644)
	os.WriteFile(xmlPath, []byte(bookXML), 0o644)

	fromDTD, err := qmatch.LoadSchema(dtdPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromDTD.Size() != 6 {
		t.Fatalf("dtd size = %d", fromDTD.Size())
	}
	fromXML, err := qmatch.LoadSchema(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromXML.Name() != "Book" {
		t.Fatalf("xml name = %s", fromXML.Name())
	}
	// .xsd goes through the XSD parser.
	xsdPath := filepath.Join(dir, "book.xsd")
	os.WriteFile(xsdPath, []byte(fromDTD.XSD()), 0o644)
	fromXSD, err := qmatch.LoadSchema(xsdPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromXSD.Name() != "Book" {
		t.Fatalf("xsd name = %s", fromXSD.Name())
	}
}

func TestLoadSchemaMissingFiles(t *testing.T) {
	for _, name := range []string{"a.dtd", "a.xml", "a.xsd", "a.json", "a.sql"} {
		if _, err := qmatch.LoadSchema(filepath.Join(t.TempDir(), name)); err == nil {
			t.Errorf("%s: missing file accepted", name)
		}
	}
}

const bookJSONSchema = `{
  "title": "Book",
  "type": "object",
  "required": ["Title", "Author", "Year"],
  "properties": {
    "lang": {"type": "string"},
    "Title": {"type": "string"},
    "Author": {"type": "array", "items": {"type": "string"}},
    "ISBN": {"type": "string"},
    "Year": {"type": "integer"}
  }
}`

const bookDDL = `
CREATE TABLE Book (
    Title VARCHAR(200) NOT NULL,
    Author VARCHAR(120) NOT NULL,
    ISBN CHAR(13),
    Year INT NOT NULL,
    lang VARCHAR(8)
);`

func TestParseJSONSchemaString(t *testing.T) {
	s, err := qmatch.ParseJSONSchemaString(bookJSONSchema)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" || s.Size() != 6 {
		t.Fatalf("schema = %s/%d:\n%s", s.Name(), s.Size(), s.Dump())
	}
}

func TestParseDDLString(t *testing.T) {
	s, err := qmatch.ParseDDLString(bookDDL, "library")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "library" || s.Size() != 7 {
		t.Fatalf("schema = %s/%d:\n%s", s.Name(), s.Size(), s.Dump())
	}
}

// The heterogeneous pairs of ROADMAP item 2: a DTD-declared schema
// against its JSON Schema and DDL formulations must match strongly —
// same labels, compatible datatypes, same one-level-of-children shape.
func TestHeterogeneousFormatMatching(t *testing.T) {
	dtdSchema, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	jsSchema, err := qmatch.ParseJSONSchemaString(bookJSONSchema)
	if err != nil {
		t.Fatal(err)
	}
	ddlSchema, err := qmatch.ParseDDLString(bookDDL, "Library")
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*qmatch.Schema{
		"dtd-vs-jsonschema": {dtdSchema, jsSchema},
		"jsonschema-vs-ddl": {jsSchema, ddlSchema},
		"ddl-vs-dtd":        {ddlSchema, dtdSchema},
	} {
		report := qmatch.Match(pair[0], pair[1])
		found := map[string]bool{}
		for _, c := range report.Correspondences {
			parts := strings.Split(c.Source, "/")
			found[parts[len(parts)-1]] = true
		}
		for _, want := range []string{"Title", "Author", "Year"} {
			if !found[want] {
				t.Errorf("%s: no correspondence for %s (got %v)", name, want, report.Correspondences)
			}
		}
	}
}

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		name, input string
		want        qmatch.Format
	}{
		{"json object", bookJSONSchema, qmatch.FormatJSONSchema},
		{"dtd", bookDTD, qmatch.FormatDTD},
		{"dtd after comment", "<!-- c -->\n<!ELEMENT a (b)>", qmatch.FormatDTD},
		{"xsd", `<xs:schema xmlns:xs="x"/>`, qmatch.FormatXSD},
		{"xsd no prefix", `<schema/>`, qmatch.FormatXSD},
		{"xsd after declaration", "\xEF\xBB\xBF<?xml version=\"1.0\"?><xsd:schema/>", qmatch.FormatXSD},
		{"xml instance", bookXML, qmatch.FormatXML},
		{"xml with declaration", `<?xml version="1.0"?><Book/>`, qmatch.FormatXML},
		{"ddl", bookDDL, qmatch.FormatDDL},
		{"ddl after comment", "-- schema\n/* x */ create table t (a int);", qmatch.FormatDDL},
	}
	for _, tc := range cases {
		got, err := qmatch.DetectFormat([]byte(tc.input))
		if err != nil || got != tc.want {
			t.Errorf("%s: DetectFormat = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}

func TestDetectFormatUnknown(t *testing.T) {
	for _, input := range []string{"", "   ", "SELECT 1;", "garbage input here", "-- only a comment"} {
		_, err := qmatch.DetectFormat([]byte(input))
		if err == nil {
			t.Errorf("%q: no error", input)
			continue
		}
		if !errors.Is(err, qmatch.ErrUnknownFormat) {
			t.Errorf("%q: error %v does not match ErrUnknownFormat", input, err)
		}
	}
	// The typed error carries the sniffed prefix for diagnostics.
	_, err := qmatch.DetectFormat([]byte("garbage input here"))
	var ufe *qmatch.UnknownFormatError
	if !errors.As(err, &ufe) || ufe.Prefix != "garbage input here" {
		t.Fatalf("error %v does not carry the sniffed prefix", err)
	}
	if !strings.Contains(err.Error(), `"garbage input here"`) {
		t.Fatalf("message %q does not show the prefix", err)
	}
}

func TestParseAuto(t *testing.T) {
	for input, want := range map[string]qmatch.Format{
		bookJSONSchema: qmatch.FormatJSONSchema,
		bookDTD:        qmatch.FormatDTD,
		bookDDL:        qmatch.FormatDDL,
		bookXML:        qmatch.FormatXML,
	} {
		s, format, err := qmatch.ParseAuto([]byte(input))
		if err != nil || format != want {
			t.Errorf("ParseAuto: format %q err %v, want %q", format, err, want)
			continue
		}
		if s.Size() == 0 {
			t.Errorf("%s: empty schema", want)
		}
	}
	if _, _, err := qmatch.ParseAuto([]byte("no schema here")); !errors.Is(err, qmatch.ErrUnknownFormat) {
		t.Fatalf("ParseAuto on junk: %v", err)
	}
}

// LoadSchema on an unknown extension sniffs the content; junk content
// surfaces the typed unknown-format error instead of an XSD parse error.
func TestLoadSchemaSniffed(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "book.json")
	sqlPath := filepath.Join(dir, "library.sql")
	sniffed := filepath.Join(dir, "book.schema")
	junk := filepath.Join(dir, "junk.bin")
	os.WriteFile(jsonPath, []byte(bookJSONSchema), 0o644)
	os.WriteFile(sqlPath, []byte(bookDDL), 0o644)
	os.WriteFile(sniffed, []byte(bookJSONSchema), 0o644)
	os.WriteFile(junk, []byte("\x00\x01binary junk"), 0o644)

	fromJSON, err := qmatch.LoadSchema(jsonPath)
	if err != nil || fromJSON.Name() != "Book" {
		t.Fatalf("json load: %v / %+v", err, fromJSON)
	}
	fromSQL, err := qmatch.LoadSchema(sqlPath)
	if err != nil || fromSQL.Name() != "library" {
		t.Fatalf("sql load: %v (DDL root should take the file's base name)", err)
	}
	fromSniffed, err := qmatch.LoadSchema(sniffed)
	if err != nil || fromSniffed.Name() != "Book" {
		t.Fatalf("sniffed load: %v", err)
	}
	if _, err := qmatch.LoadSchema(junk); !errors.Is(err, qmatch.ErrUnknownFormat) {
		t.Fatalf("junk load error = %v, want ErrUnknownFormat", err)
	}
}

// Every front-end's node budget surfaces through the public parsers as
// one typed error: the checked-in XSD and DTD expansion bombs, a $ref
// fan-out JSON Schema, and an instance document of distinct elements.
func TestSchemaTooLarge(t *testing.T) {
	read := func(path ...string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(path...))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var js strings.Builder
	js.WriteString(`{"title": "Bomb", "$ref": "#/definitions/d0", "definitions": {`)
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&js, `"d%d": {"type": "object", "properties": {"a": {"$ref": "#/definitions/d%d"}, "b": {"$ref": "#/definitions/d%d"}}},`, i, i+1, i+1)
	}
	js.WriteString(`"d20": {"type": "string"}}}`)
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 1<<16; i++ {
		fmt.Fprintf(&doc, "<e%d/>", i)
	}
	doc.WriteString("</r>")

	for name, parse := range map[string]func() (*qmatch.Schema, error){
		"xsd": func() (*qmatch.Schema, error) {
			return qmatch.ParseSchemaString(read("internal", "xsd", "testdata", "bomb_chained_types.xsd"))
		},
		"dtd": func() (*qmatch.Schema, error) {
			return qmatch.ParseDTDString(read("internal", "dtd", "testdata", "bomb.dtd"), "")
		},
		"jsonschema": func() (*qmatch.Schema, error) { return qmatch.ParseJSONSchemaString(js.String()) },
		"xml":        func() (*qmatch.Schema, error) { return qmatch.InferSchemaString(doc.String()) },
	} {
		if _, err := parse(); !errors.Is(err, qmatch.ErrSchemaTooLarge) {
			t.Errorf("%s: error = %v, want qmatch.ErrSchemaTooLarge", name, err)
		}
	}
}
