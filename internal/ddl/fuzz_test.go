package ddl

import (
	"testing"
	"testing/quick"

	"qmatch/internal/xmltree"
)

// The DDL parser must be total: random inputs error or parse, never
// panic.
func TestParseNeverPanics(t *testing.T) {
	prop := func(junk string) bool {
		_, _ = ParseString(junk, "")
		_, _ = ParseString("CREATE TABLE t ("+junk+")", "db")
		_, _ = ParseString("CREATE TABLE t (a INT "+junk+");", "db")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseDDL drives the DDL parser with arbitrary source/name pairs.
// The parser must stay total and any database tree it accepts must be
// well-formed: three levels (db → table → column), non-empty labels,
// tables with at least one column, and no more than maxNodes nodes.
func FuzzParseDDL(f *testing.F) {
	f.Add(storeDDL, "store")
	f.Add(`CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10) NOT NULL DEFAULT 'x');`, "")
	f.Add("CREATE TABLE `q t` (\"c 1\" DOUBLE PRECISION, [c2] TIMESTAMP WITH TIME ZONE);", "db")
	f.Add(`CREATE TABLE a (x INT REFERENCES b (y) ON DELETE CASCADE, CONSTRAINT fk FOREIGN KEY (x) REFERENCES b (y));`, "z")
	f.Add(`CREATE TABLE t (a INT, -- comment
	/* block */ b TEXT CHECK (b <> ''));`, "")
	f.Add(``, ``)
	f.Add(`CREATE TABLE t (`, `x`)
	f.Fuzz(func(t *testing.T, src, name string) {
		tree, err := ParseString(src, name)
		if err != nil {
			return
		}
		if tree == nil {
			t.Fatalf("nil tree with nil error for %q", src)
		}
		if tree.Label == "" {
			t.Fatalf("root has an empty label for %q name %q", src, name)
		}
		if size := tree.Size(); size > maxNodes {
			t.Fatalf("tree grew past the node bound: %d nodes", size)
		}
		for _, table := range tree.Children {
			if table.Label == "" || len(table.Children) == 0 {
				t.Fatalf("malformed table in accepted tree:\n%s", tree.Dump())
			}
			if table.Props.MaxOccurs != xmltree.Unbounded {
				t.Fatalf("table %q not repeated: %+v", table.Label, table.Props)
			}
			for _, col := range table.Children {
				if col.Label == "" || !col.IsLeaf() {
					t.Fatalf("malformed column in accepted tree:\n%s", tree.Dump())
				}
			}
		}
	})
}
