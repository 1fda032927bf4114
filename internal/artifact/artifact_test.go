package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

// compileT compiles a dataset tree or fails the test.
func compileT(t *testing.T, root *xmltree.Node, flags uint16) *Compiled {
	t.Helper()
	c, err := Compile(root, flags)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encodeT renders an artifact to bytes.
func encodeT(t *testing.T, c *Compiled) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		root  *xmltree.Node
		flags uint16
	}{
		{"po1", dataset.PO1(), 0},
		{"po2-tokens", dataset.PO2(), FlagLabelTokens},
		{"book", dataset.Book(), 0},
		{"human", dataset.Human(), FlagLabelTokens},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := compileT(t, tc.root, tc.flags)
			blob := encodeT(t, orig)
			back, err := Decode(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.ID() != orig.ID() {
				t.Errorf("ID changed across round trip: %s != %s", back.ID(), orig.ID())
			}
			if back.Flags != orig.Flags {
				t.Errorf("flags changed: %d != %d", back.Flags, orig.Flags)
			}
			// The decoded tree must render to the identical schema document.
			if got, want := xsd.Render(back.Root), xsd.Render(orig.Root); got != want {
				t.Errorf("decoded tree renders differently:\n%s\nwant:\n%s", got, want)
			}
			// The derived views must be recomputed identically: they are
			// what the compiled match path consumes.
			if !reflect.DeepEqual(back.Interned, orig.Interned) {
				t.Error("interned vocabulary differs after round trip")
			}
			if !reflect.DeepEqual(back.Terms, orig.Terms) {
				t.Errorf("terms differ after round trip: %v != %v", back.Terms, orig.Terms)
			}
			if back.Sketch != orig.Sketch {
				t.Error("sketch differs after round trip")
			}
			// Re-encoding a decoded artifact must reproduce the bytes.
			if !bytes.Equal(encodeT(t, back), blob) {
				t.Error("re-encode is not byte-identical")
			}
		})
	}
}

func TestContentID(t *testing.T) {
	a := compileT(t, dataset.PO1(), 0)
	b := compileT(t, dataset.PO1(), 0)
	if a.ID() != b.ID() {
		t.Errorf("equal trees, equal flags: IDs differ (%s vs %s)", a.ID(), b.ID())
	}
	c := compileT(t, dataset.PO1(), FlagLabelTokens)
	if c.ID() == a.ID() {
		t.Error("different flags must change the content ID")
	}
	d := compileT(t, dataset.PO2(), 0)
	if d.ID() == a.ID() {
		t.Error("different trees must change the content ID")
	}
	if len(a.ID()) != 64 {
		t.Errorf("ID is not a hex SHA-256: %q", a.ID())
	}
}

// header offsets of the binary format.
const (
	offVersion = 4
	offSum     = 6
	offPaylen  = 38
	offPayload = 46
)

// reseal recomputes checksum and length after a payload mutation, so the
// blob fails in the payload grammar, not at the checksum gate.
func reseal(blob []byte) []byte {
	payload := blob[offPayload:]
	sum := sha256.Sum256(payload)
	copy(blob[offSum:offSum+32], sum[:])
	binary.BigEndian.PutUint64(blob[offPaylen:offPaylen+8], uint64(len(payload)))
	return blob
}

// payloadOf hand-builds a payload from one node's fields so grammar
// violations can be planted at exact positions.
type rawNode struct {
	label, typ            string
	order, minOcc, maxOcc int64
	bits                  byte
	use, fixed, def       string
	children              uint64
}

func buildPayload(flags uint16, count uint64, nodes ...rawNode) []byte {
	buf := make([]byte, 2)
	binary.BigEndian.PutUint16(buf, flags)
	buf = binary.AppendUvarint(buf, count)
	for _, n := range nodes {
		buf = appendString(buf, n.label)
		buf = appendString(buf, n.typ)
		buf = binary.AppendVarint(buf, n.order)
		buf = binary.AppendVarint(buf, n.minOcc)
		buf = binary.AppendVarint(buf, n.maxOcc)
		buf = append(buf, n.bits)
		buf = appendString(buf, n.use)
		buf = appendString(buf, n.fixed)
		buf = appendString(buf, n.def)
		buf = binary.AppendUvarint(buf, n.children)
	}
	return buf
}

func seal(payload []byte) []byte {
	blob := make([]byte, offPayload, offPayload+len(payload))
	copy(blob, magic[:])
	binary.BigEndian.PutUint16(blob[offVersion:], Version)
	sum := sha256.Sum256(payload)
	copy(blob[offSum:], sum[:])
	binary.BigEndian.PutUint64(blob[offPaylen:], uint64(len(payload)))
	return append(blob, payload...)
}

// TestDecodeRejectsCorruptBlobs drives every decode failure mode through
// its typed sentinel: magic, version, truncation, checksum, and a table
// of checksummed-but-malformed payloads.
func TestDecodeRejectsCorruptBlobs(t *testing.T) {
	valid := encodeT(t, compileT(t, dataset.PO1(), 0))
	okNode := rawNode{label: "A", minOcc: 1, maxOcc: 1}

	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"header-cut", append([]byte(nil), valid[:20]...), ErrTruncated},
		{"payload-cut", append([]byte(nil), valid[:len(valid)-3]...), ErrTruncated},
		{"bad-magic", func() []byte {
			b := append([]byte(nil), valid...)
			b[0] = 'X'
			return b
		}(), ErrMagic},
		{"future-version", func() []byte {
			b := append([]byte(nil), valid...)
			binary.BigEndian.PutUint16(b[offVersion:], Version+1)
			return b
		}(), ErrVersion},
		{"flipped-payload-byte", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0xff
			return b
		}(), ErrChecksum},
		{"forged-length", func() []byte {
			b := append([]byte(nil), valid...)
			binary.BigEndian.PutUint64(b[offPaylen:], maxPayload+1)
			return b
		}(), ErrMalformed},
		{"trailing-bytes", reseal(append(append([]byte(nil), valid...), 0)), ErrMalformed},
		{"zero-node-count", seal(buildPayload(0, 0)), ErrMalformed},
		{"implausible-node-count", seal(buildPayload(0, 1<<40, okNode)), ErrMalformed},
		{"count-overrun", seal(buildPayload(0, 2, okNode)), ErrMalformed},
		{"empty-label", seal(buildPayload(0, 1, rawNode{label: "", minOcc: 1, maxOcc: 1})), ErrMalformed},
		{"negative-order", seal(buildPayload(0, 1, rawNode{label: "A", order: -1, minOcc: 1, maxOcc: 1})), ErrMalformed},
		{"bad-max-occurs", seal(buildPayload(0, 1, rawNode{label: "A", minOcc: 1, maxOcc: -2})), ErrMalformed},
		{"unknown-prop-bits", seal(buildPayload(0, 1, rawNode{label: "A", minOcc: 1, maxOcc: 1, bits: 0xf0})), ErrMalformed},
		{"child-count-overrun", seal(buildPayload(0, 2, rawNode{label: "A", minOcc: 1, maxOcc: 1, children: 1 << 30})), ErrMalformed},
		{"string-overrun", seal(func() []byte {
			buf := make([]byte, 2)
			buf = binary.AppendUvarint(buf, 1)
			buf = binary.AppendUvarint(buf, 1<<20) // label length far past payload end
			return buf
		}()), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.blob))
			if err == nil {
				t.Fatal("decode accepted a corrupt blob")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}

	// The pristine blob must still decode after all that surgery on copies.
	if _, err := Decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
}

func TestOverlap(t *testing.T) {
	po1 := compileT(t, dataset.PO1(), 0)
	po1b := compileT(t, dataset.PO1(), 0)
	if got := Overlap(po1, po1b); got != 1 {
		t.Errorf("identical vocabularies: overlap %v, want 1", got)
	}
	po2 := compileT(t, dataset.PO2(), 0)
	mid := Overlap(po1, po2)
	if mid <= 0 || mid >= 1 {
		t.Errorf("related schemas: overlap %v, want in (0,1)", mid)
	}
	human := compileT(t, dataset.Human(), 0)
	far := Overlap(po1, human)
	if far >= mid {
		t.Errorf("unrelated schema overlaps (%v) at least as much as the related one (%v)", far, mid)
	}
	if Overlap(po1, po2) != Overlap(po2, po1) {
		t.Error("overlap is not symmetric")
	}
}

func TestLabelTokensGrowVocabulary(t *testing.T) {
	plain := compileT(t, dataset.PO1(), 0)
	tokens := compileT(t, dataset.PO1(), FlagLabelTokens)
	if len(tokens.Terms) <= len(plain.Terms) {
		t.Errorf("token vocabulary (%d terms) not larger than plain (%d)",
			len(tokens.Terms), len(plain.Terms))
	}
}

func TestSketch(t *testing.T) {
	a := compileT(t, dataset.PO1(), 0)
	if a.Sketch.Bits() == 0 {
		t.Error("non-empty vocabulary produced an empty sketch")
	}
	if !a.Sketch.Intersects(a.Sketch) {
		t.Error("sketch does not intersect itself")
	}
	var empty Sketch
	if empty.Intersects(a.Sketch) {
		t.Error("empty sketch intersects a populated one")
	}
}

// flatTree builds a root with the given number of leaf children.
func flatTree(children int) *xmltree.Node {
	root := xmltree.New("root", xmltree.Properties{MinOccurs: 1, MaxOccurs: 1})
	for i := 0; i < children; i++ {
		root.Add(xmltree.New("leaf", xmltree.Properties{Type: "string", MinOccurs: 1, MaxOccurs: 1}))
	}
	return root
}

// A blob that checksums but declares more nodes than the front-ends'
// budget is refused with the typed bound error before a single node is
// decoded; a blob of exactly the budget still decodes.
func TestDecodeRejectsOverBudgetNodeCount(t *testing.T) {
	over := encodeT(t, compileT(t, flatTree(xmltree.MaxNodes), 0))
	_, err := Decode(bytes.NewReader(over))
	if !errors.Is(err, xmltree.ErrTooLarge) {
		t.Fatalf("decode of %d nodes: error = %v, want xmltree.ErrTooLarge", xmltree.MaxNodes+1, err)
	}
	// Decoding the tree would allocate at least one node per declared
	// node; the refusal costs only the payload buffer and the error.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Decode(bytes.NewReader(over)); err == nil {
			t.Fatal("over-budget blob decoded")
		}
	})
	if allocs > 100 {
		t.Fatalf("refusing the over-budget blob took %.0f allocs, want it to fail before decoding nodes", allocs)
	}
	at := encodeT(t, compileT(t, flatTree(xmltree.MaxNodes-1), 0))
	back, err := Decode(bytes.NewReader(at))
	if err != nil {
		t.Fatalf("decode of exactly %d nodes: %v", xmltree.MaxNodes, err)
	}
	if len(back.Nodes) != xmltree.MaxNodes {
		t.Fatalf("decoded %d nodes, want %d", len(back.Nodes), xmltree.MaxNodes)
	}
}
