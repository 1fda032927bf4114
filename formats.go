package qmatch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qmatch/internal/ddl"
	"qmatch/internal/dtd"
	"qmatch/internal/infer"
	"qmatch/internal/jsonschema"
	"qmatch/internal/xmltree"
)

// ParseDTD reads a Document Type Definition and returns the schema rooted
// at the named element (or the first declared element when root is empty).
func ParseDTD(r io.Reader, root string) (*Schema, error) {
	tree, err := dtd.Parse(r, root)
	if err != nil {
		return nil, err
	}
	return &Schema{root: tree}, nil
}

// ParseDTDString is ParseDTD over a string.
func ParseDTDString(s, root string) (*Schema, error) {
	return ParseDTD(strings.NewReader(s), root)
}

// ParseDTDFile is ParseDTD over a file path.
func ParseDTDFile(path, root string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	return ParseDTD(f, root)
}

// InferSchema derives a schema from an XML instance document — for
// matching against documents that ship without any schema.
func InferSchema(r io.Reader) (*Schema, error) {
	tree, err := infer.Infer(r)
	if err != nil {
		return nil, err
	}
	return &Schema{root: tree}, nil
}

// InferSchemaString is InferSchema over a string.
func InferSchemaString(s string) (*Schema, error) {
	return InferSchema(strings.NewReader(s))
}

// InferSchemaFile is InferSchema over a file path.
func InferSchemaFile(path string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	return InferSchema(f)
}

// ParseJSONSchema reads a JSON Schema document (draft-07 subset: see
// internal/jsonschema) and returns the schema rooted at an element
// labeled with the document's title.
func ParseJSONSchema(r io.Reader) (*Schema, error) {
	tree, err := jsonschema.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Schema{root: tree}, nil
}

// ParseJSONSchemaString is ParseJSONSchema over a string.
func ParseJSONSchemaString(s string) (*Schema, error) {
	return ParseJSONSchema(strings.NewReader(s))
}

// ParseJSONSchemaFile is ParseJSONSchema over a file path.
func ParseJSONSchemaFile(path string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	return ParseJSONSchema(f)
}

// ParseDDL reads SQL CREATE TABLE statements and returns the
// database → table → column schema tree, rooted at an element labeled
// name ("" = "db").
func ParseDDL(r io.Reader, name string) (*Schema, error) {
	tree, err := ddl.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return &Schema{root: tree}, nil
}

// ParseDDLString is ParseDDL over a string.
func ParseDDLString(s, name string) (*Schema, error) {
	return ParseDDL(strings.NewReader(s), name)
}

// ParseDDLFile is ParseDDL over a file path; an empty name roots the
// tree at the file's base name.
func ParseDDLFile(path, name string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	if name == "" {
		base := filepath.Base(path)
		name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return ParseDDL(f, name)
}

// Format identifies a schema ingestion front-end.
type Format string

// The ingestion formats every entry point (CLIs, qmatchd, registry)
// accepts.
const (
	FormatXSD        Format = "xsd"        // XML Schema
	FormatDTD        Format = "dtd"        // Document Type Definition
	FormatXML        Format = "xml"        // schema inferred from an XML instance
	FormatJSONSchema Format = "jsonschema" // JSON Schema (draft-07 subset)
	FormatDDL        Format = "ddl"        // SQL CREATE TABLE statements
)

// ErrUnknownFormat reports input whose schema format could not be
// detected. Errors returned by DetectFormat and ParseAuto match it with
// errors.Is and carry the sniffed input prefix in their message.
var ErrUnknownFormat = errors.New("unknown schema format")

// ErrSchemaTooLarge reports a schema document whose tree would expand past
// the 65,536-node budget every front-end (XSD, DTD, XML inference, JSON
// Schema, SQL DDL) enforces while it builds the tree, and that artifact
// decoding enforces on the declared node count. Errors for such input
// match it with errors.Is; qmatchd answers them with 413.
var ErrSchemaTooLarge = xmltree.ErrTooLarge

// UnknownFormatError is the typed detection failure: Prefix holds the
// start of the (trimmed) input that no front-end recognized.
type UnknownFormatError struct {
	Prefix string
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("qmatch: unknown schema format (want xsd, dtd, xml, jsonschema or ddl; input begins %q)", e.Prefix)
}

// Is makes errors.Is(err, ErrUnknownFormat) true for detection failures.
func (e *UnknownFormatError) Is(target error) bool { return target == ErrUnknownFormat }

// DetectFormat sniffs the schema format from the document content: "{"
// opens a JSON Schema, "<!" a DTD, a root tag whose name ends in
// "schema" an XSD, any other XML an instance document, and a leading
// CREATE keyword DDL. Comments and processing instructions are skipped
// before sniffing. Unrecognizable input returns an *UnknownFormatError
// (errors.Is-matchable against ErrUnknownFormat).
func DetectFormat(data []byte) (Format, error) {
	rest := skipPreamble(data)
	switch {
	case len(rest) == 0:
		return "", &UnknownFormatError{Prefix: ""}
	case rest[0] == '{':
		return FormatJSONSchema, nil
	case bytes.HasPrefix(rest, []byte("<!")):
		return FormatDTD, nil
	case rest[0] == '<':
		name := tagName(rest[1:])
		if n := strings.ToLower(name); n == "schema" || strings.HasSuffix(n, ":schema") {
			return FormatXSD, nil
		}
		return FormatXML, nil
	}
	if word := leadingWord(rest); strings.EqualFold(word, "CREATE") {
		return FormatDDL, nil
	}
	return "", &UnknownFormatError{Prefix: sniffPrefix(rest)}
}

// skipPreamble drops a UTF-8 BOM, whitespace, XML processing
// instructions, and XML/SQL comments — none of them identify a format.
func skipPreamble(data []byte) []byte {
	data = bytes.TrimPrefix(data, []byte{0xEF, 0xBB, 0xBF})
	for {
		data = bytes.TrimLeft(data, " \t\r\n")
		switch {
		case bytes.HasPrefix(data, []byte("<?")):
			end := bytes.Index(data, []byte("?>"))
			if end < 0 {
				return nil
			}
			data = data[end+2:]
		case bytes.HasPrefix(data, []byte("<!--")):
			end := bytes.Index(data, []byte("-->"))
			if end < 0 {
				return nil
			}
			data = data[end+3:]
		case bytes.HasPrefix(data, []byte("--")):
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				return nil
			}
			data = data[nl+1:]
		case bytes.HasPrefix(data, []byte("/*")):
			end := bytes.Index(data, []byte("*/"))
			if end < 0 {
				return nil
			}
			data = data[end+2:]
		default:
			return data
		}
	}
}

// tagName reads an XML tag name (prefix included) from the byte after
// "<".
func tagName(data []byte) string {
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '>' || c == '/' {
			return string(data[:i])
		}
	}
	return string(data)
}

// leadingWord reads the first run of letters.
func leadingWord(data []byte) string {
	for i := 0; i < len(data); i++ {
		c := data[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return string(data[:i])
		}
	}
	return string(data)
}

// sniffPrefix bounds the input excerpt an UnknownFormatError reports.
func sniffPrefix(data []byte) string {
	const max = 32
	if len(data) > max {
		data = data[:max]
	}
	return string(data)
}

// ParseAuto detects the schema format of data (DetectFormat) and parses
// it with the matching front-end, reporting which format was used. The
// DDL database label and DTD root fall back to their defaults.
func ParseAuto(data []byte) (*Schema, Format, error) {
	format, err := DetectFormat(data)
	if err != nil {
		return nil, "", err
	}
	s, err := parseAs(data, format, "")
	return s, format, err
}

// parseAs dispatches one format's parser; root carries the DTD root
// element or the DDL database label.
func parseAs(data []byte, format Format, root string) (*Schema, error) {
	switch format {
	case FormatXSD:
		return ParseSchemaString(string(data))
	case FormatDTD:
		return ParseDTDString(string(data), root)
	case FormatXML:
		return InferSchemaString(string(data))
	case FormatJSONSchema:
		return ParseJSONSchemaString(string(data))
	case FormatDDL:
		return ParseDDLString(string(data), root)
	}
	return nil, fmt.Errorf("qmatch: no parser for format %q", format)
}

// LoadSchema loads a schema from a file, selecting the format by
// extension: .xsd → XML Schema, .dtd → DTD (first declared element as
// root), .xml → schema inference from the instance document, .json →
// JSON Schema, .sql/.ddl → SQL DDL (database labeled after the file).
// Other extensions are sniffed from the content (DetectFormat);
// unrecognizable content fails with an error matching ErrUnknownFormat.
func LoadSchema(path string) (*Schema, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xsd":
		return ParseSchemaFile(path)
	case ".dtd":
		return ParseDTDFile(path, "")
	case ".xml":
		return InferSchemaFile(path)
	case ".json":
		return ParseJSONSchemaFile(path)
	case ".sql", ".ddl":
		return ParseDDLFile(path, "")
	default:
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("qmatch: %w", err)
		}
		s, _, err := ParseAuto(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
}
