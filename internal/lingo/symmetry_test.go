package lingo

import "testing"

// symmetryLabels exercises every Match code path: exact labels, separator
// and case variants, thesaurus relations (synonym, acronym, hypernym),
// abbreviations, multi-token labels with partial overlap, pure string
// similarity, unicode, the empty label and labels past the stack-buffer
// limit of the string metrics.
var symmetryLabels = []string{
	"",
	"OrderNo",
	"order_no",
	"PurchaseOrder",
	"PO",
	"Writer",
	"Author",
	"Item#",
	"itemCount",
	"ShipTo-Address",
	"billToStreetName",
	"qty",
	"Quantity",
	"DeliverTo",
	"protein_sequence_data",
	"söme-ünïcode-label",
	"x",
	"ThisIsAnExtremelyLongSchemaElementLabelThatExceedsTheStackBufferLimitOfTheStringMetricsByAGoodMargin",
}

// ScoreCache stores one entry per unordered label pair, which is only
// sound if Match is symmetric. Pin it.
func TestNameMatchSymmetric(t *testing.T) {
	m := matcher()
	for _, a := range symmetryLabels {
		for _, b := range symmetryLabels {
			sa, ka := m.Match(a, b)
			sb, kb := m.Match(b, a)
			if sa != sb || ka != kb {
				t.Errorf("Match(%q, %q) = (%v, %v) but Match(%q, %q) = (%v, %v)",
					a, b, sa, ka, b, a, sb, kb)
			}
		}
	}
}
