package ddl

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"qmatch/internal/xmltree"
)

const storeDDL = `
-- an order-management excerpt
CREATE TABLE customers (
    id INTEGER PRIMARY KEY,
    name VARCHAR(80) NOT NULL,
    email VARCHAR(120) UNIQUE,
    created_at TIMESTAMP DEFAULT CURRENT_TIMESTAMP
);

CREATE TABLE orders (
    order_no BIGINT NOT NULL,
    customer_id INTEGER NOT NULL REFERENCES customers (id),
    total DECIMAL(10,2),
    shipped BOOLEAN DEFAULT 'f',
    PRIMARY KEY (order_no),
    FOREIGN KEY (customer_id) REFERENCES customers (id) ON DELETE CASCADE
);
`

func parse(t *testing.T, src, name string) *xmltree.Node {
	t.Helper()
	tree, err := ParseString(src, name)
	if err != nil {
		t.Fatalf("ParseString: %v\nsrc: %s", err, src)
	}
	return tree
}

func TestParseStore(t *testing.T) {
	tree := parse(t, storeDDL, "store")
	if tree.Label != "store" {
		t.Fatalf("root label = %q", tree.Label)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("got %d tables, want 2:\n%s", len(tree.Children), tree.Dump())
	}
	customers := tree.Children[0]
	if customers.Label != "customers" || customers.Props.MaxOccurs != xmltree.Unbounded {
		t.Fatalf("customers table props wrong: %+v", customers.Props)
	}
	if customers.Level() != 1 || customers.Children[0].Level() != 2 {
		t.Fatal("DB→table→column levels wrong")
	}

	id := tree.Find("store/customers/id")
	if id == nil || id.Props.Type != "int" || id.Props.Use != "key" || id.Props.MinOccurs != 1 {
		t.Fatalf("customers.id = %+v, want int inline primary key", id.Props)
	}
	name := tree.Find("store/customers/name")
	if name == nil || name.Props.Type != "string" || name.Props.MinOccurs != 1 {
		t.Fatalf("customers.name = %+v, want NOT NULL string", name.Props)
	}
	email := tree.Find("store/customers/email")
	if email == nil || email.Props.MinOccurs != 0 {
		t.Fatalf("customers.email = %+v, want nullable", email.Props)
	}
	created := tree.Find("store/customers/created_at")
	if created == nil || created.Props.Type != "dateTime" || created.Props.Default != "CURRENT_TIMESTAMP" {
		t.Fatalf("customers.created_at = %+v", created.Props)
	}

	orderNo := tree.Find("store/orders/order_no")
	if orderNo == nil || orderNo.Props.Type != "long" || orderNo.Props.Use != "key" {
		t.Fatalf("orders.order_no = %+v, want table-level primary key on long", orderNo.Props)
	}
	custID := tree.Find("store/orders/customer_id")
	if custID == nil || custID.Props.Use != "keyref" {
		t.Fatalf("orders.customer_id = %+v, want foreign key (keyref)", custID.Props)
	}
	total := tree.Find("store/orders/total")
	if total == nil || total.Props.Type != "decimal" {
		t.Fatalf("orders.total = %+v", total.Props)
	}
}

func TestParseDefaultName(t *testing.T) {
	tree := parse(t, `CREATE TABLE t (a INT);`, "")
	if tree.Label != "db" {
		t.Fatalf("default root label = %q, want db", tree.Label)
	}
}

func TestParseColumnOrder(t *testing.T) {
	tree := parse(t, `CREATE TABLE t (z INT, a INT, m INT);`, "")
	cols := tree.Children[0].Children
	for i, want := range []string{"z", "a", "m"} {
		if cols[i].Label != want || cols[i].Props.Order != i+1 {
			t.Fatalf("column order not declaration order: %v", cols)
		}
	}
}

func TestParseTypeMap(t *testing.T) {
	tree := parse(t, `CREATE TABLE t (
	    a SMALLINT, b TINYINT, c DOUBLE PRECISION, d CHARACTER VARYING(20),
	    e TIMESTAMP WITH TIME ZONE, f BYTEA, g UUID, h ENUM('x','y'),
	    i SERIAL, j CUSTOMTYPE
	);`, "")
	want := map[string]string{
		"a": "short", "b": "byte", "c": "double", "d": "string",
		"e": "dateTime", "f": "base64Binary", "g": "string", "h": "token",
		"i": "int", "j": "customtype",
	}
	for _, c := range tree.Children[0].Children {
		if c.Props.Type != want[c.Label] {
			t.Errorf("column %s type = %q, want %q", c.Label, c.Props.Type, want[c.Label])
		}
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	tree := parse(t, "CREATE TABLE `Order Lines` (\"Unit Price\" DECIMAL, [qty] INT);", "")
	table := tree.Children[0]
	if table.Label != "Order Lines" {
		t.Fatalf("table label = %q", table.Label)
	}
	if table.Children[0].Label != "Unit Price" || table.Children[1].Label != "qty" {
		t.Fatalf("column labels = %v", table.Children)
	}
}

func TestParseQualifiedNames(t *testing.T) {
	tree := parse(t, `CREATE TABLE public.users (id INT PRIMARY KEY);`, "")
	if tree.Children[0].Label != "users" {
		t.Fatalf("qualified table label = %q, want users", tree.Children[0].Label)
	}
}

func TestParseConstraintClauses(t *testing.T) {
	tree := parse(t, `CREATE TABLE IF NOT EXISTS t (
	    id INT GENERATED ALWAYS AS IDENTITY,
	    age INT CHECK (age > 0),
	    note VARCHAR(10) COLLATE utf8 COMMENT 'free text',
	    CONSTRAINT pk_t PRIMARY KEY (id),
	    UNIQUE (age),
	    KEY idx_note (note)
	) ENGINE=InnoDB;`, "")
	id := tree.Find("db/t/id")
	if id == nil || id.Props.Use != "key" {
		t.Fatalf("named-constraint primary key not recorded: %+v", id)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"not ddl":          `SELECT 1;`,
		"insert":           `INSERT INTO t VALUES (1);`,
		"no columns":       `CREATE TABLE t ();`,
		"dup table":        `CREATE TABLE t (a INT); CREATE TABLE t (b INT);`,
		"dup column":       `CREATE TABLE t (a INT, a INT);`,
		"unterminated":     `CREATE TABLE t (a INT`,
		"bad constraint":   `CREATE TABLE t (a INT WIBBLE);`,
		"unknown pk col":   `CREATE TABLE t (a INT, PRIMARY KEY (zzz));`,
		"unterminated str": `CREATE TABLE t (a INT DEFAULT 'x);`,
	}
	for name, src := range cases {
		if _, err := ParseString(src, ""); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestParseManyStatements(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString("CREATE TABLE t")
		b.WriteByte(byte('a' + i%26))
		if i >= 26 {
			b.WriteByte('2')
		}
		b.WriteString(" (x INT);\n")
	}
	tree := parse(t, b.String(), "big")
	if len(tree.Children) != 30 {
		t.Fatalf("got %d tables, want 30", len(tree.Children))
	}
}

// wideTable renders one CREATE TABLE statement with the given number of
// columns.
func wideTable(columns int) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE wide (")
	for i := 0; i < columns; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "c%d INT", i)
	}
	b.WriteString(");")
	return b.String()
}

// DDL cannot expand, but one wide table builds a node per column: a
// ~1 MB statement of 100,000 columns must fail with the typed bound error
// every front-end returns, while a table that just fits the bound parses.
func TestWideTableNodeBound(t *testing.T) {
	_, err := ParseString(wideTable(100_000), "db")
	if !errors.Is(err, xmltree.ErrTooLarge) || !strings.Contains(err.Error(), fmt.Sprintf("expands past %d nodes", maxNodes)) {
		t.Fatalf("ParseString(100,000 columns) error = %v, want the typed %d-node bound", err, maxNodes)
	}
	// Root and table take two nodes; the rest of the budget is columns.
	tree := parse(t, wideTable(maxNodes-2), "db")
	if size := tree.Size(); size != maxNodes {
		t.Fatalf("tree has %d nodes, want exactly %d", size, maxNodes)
	}
	if _, err := ParseString(wideTable(maxNodes-1), "db"); !errors.Is(err, xmltree.ErrTooLarge) {
		t.Fatalf("one column past the bound: error = %v, want xmltree.ErrTooLarge", err)
	}
}
