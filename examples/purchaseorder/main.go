// Purchase-order integration: the paper's running example (§2.1–2.2) in
// full — match the PO and Purchase Order schemas of Figures 1–2, walk the
// worked node pairs of the paper, and evaluate against the manually
// determined real matches.
//
//	go run ./examples/purchaseorder
package main

import (
	"fmt"

	"qmatch"
	"qmatch/internal/core"
	"qmatch/internal/dataset"
	"qmatch/internal/match"
)

func main() {
	src, tgt := dataset.PO1(), dataset.PO2()
	fmt.Println("--- PO schema (Figure 1) ---")
	fmt.Print(src.Dump())
	fmt.Println("--- Purchase Order schema (Figure 2) ---")
	fmt.Print(tgt.Dump())

	// The full pair table of the hybrid matcher; Pair rebuilds each
	// requested cell's per-axis breakdown from it.
	m := core.NewMatcher(nil)
	res := m.Tree(src, tgt)

	// Walk the node pairs the paper discusses, printing their per-axis
	// QoM and taxonomy classification.
	fmt.Println("\nworked pairs from the paper:")
	for _, pair := range [][2]string{
		{"PO/OrderNo", "PurchaseOrder/OrderNo"},
		{"PO/PurchaseInfo/Lines/Quantity", "PurchaseOrder/Items/Qty"},
		{"PO/PurchaseInfo/Lines/UnitOfMeasure", "PurchaseOrder/Items/UOM"},
		{"PO/PurchaseInfo/Lines", "PurchaseOrder/Items"},
		{"PO/PurchaseInfo", "PurchaseOrder"},
		{"PO", "PurchaseOrder"},
	} {
		s, t := src.Find(pair[0]), tgt.Find(pair[1])
		q, _ := res.Pair(s, t)
		fmt.Printf("  %-38s vs %-28s %s\n", pair[0], pair[1], q)
	}

	// Selected correspondences and their evaluation against the gold
	// standard.
	hybrid := core.NewHybrid(nil)
	predicted := hybrid.Match(src, tgt)
	gold := dataset.POGold()
	fmt.Printf("\npredicted correspondences (%d):\n", len(predicted))
	for _, c := range predicted {
		marker := " "
		if gold.Contains(c.Source, c.Target) {
			marker = "*" // a real match
		}
		fmt.Printf("  %s %s\n", marker, c)
	}
	e := match.Evaluate(predicted, gold)
	fmt.Printf("\nevaluation vs %d real matches: %s\n", gold.Size(), e)

	// The same task through the public API, for comparison.
	report := qmatch.Match(qmatch.FromTree(dataset.PO1()), qmatch.FromTree(dataset.PO2()))
	fmt.Printf("\npublic API: %d correspondences, schema QoM %.3f\n",
		len(report.Correspondences), report.TreeQoM)
}
