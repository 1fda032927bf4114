package qmatch_test

import (
	"bytes"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

// encodeArtifact compiles a schema document and returns its artifact
// bytes, for seeding the fuzz corpus.
func encodeArtifact(f *testing.F, doc string, opts ...qmatch.CompileOption) []byte {
	f.Helper()
	s, err := qmatch.ParseSchemaString(doc)
	if err != nil {
		f.Fatal(err)
	}
	cs, err := qmatch.Compile(s, opts...)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cs.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzArtifactRoundTrip feeds arbitrary bytes through the artifact
// decoder. Most inputs must be rejected with a typed error and no panic;
// whenever one decodes, its tree stays within the front-ends' node budget
// and the encoding must be a fixpoint — re-encoding
// reproduces the input bytes exactly (the format has no redundant
// representations), the content ID is stable, and a second decode→encode
// cycle changes nothing.
func FuzzArtifactRoundTrip(f *testing.F) {
	f.Add(encodeArtifact(f, xsd.Render(dataset.PO1())))
	f.Add(encodeArtifact(f, xsd.Render(dataset.PO2()), qmatch.WithLabelTokens()))
	f.Add(encodeArtifact(f, xsd.Render(dataset.Book())))
	f.Add(encodeArtifact(f, `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="A"/></xs:schema>`))
	f.Add([]byte("QMSC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := qmatch.DecodeCompiled(bytes.NewReader(data))
		if err != nil {
			return
		}
		if size := cs.Size(); size > xmltree.MaxNodes {
			t.Fatalf("decoded a %d-node artifact, past the %d-node bound", size, xmltree.MaxNodes)
		}
		var first bytes.Buffer
		if err := cs.Encode(&first); err != nil {
			t.Fatalf("re-encoding a decoded artifact failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), data) {
			t.Fatalf("encoding is not a fixpoint:\ndecoded from %d bytes, re-encoded to %d", len(data), first.Len())
		}
		back, err := qmatch.DecodeCompiled(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("our own re-encoding does not decode: %v", err)
		}
		if back.ID() != cs.ID() {
			t.Fatalf("content ID unstable across round trip: %s != %s", back.ID(), cs.ID())
		}
		var second bytes.Buffer
		if err := back.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("second round trip changed the bytes")
		}
	})
}
