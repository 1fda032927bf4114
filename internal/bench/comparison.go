package bench

import (
	"fmt"
	"strings"

	"qmatch/internal/composite"
	"qmatch/internal/core"
	"qmatch/internal/cupid"
	"qmatch/internal/dataset"
	"qmatch/internal/linguistic"
	"qmatch/internal/match"
	"qmatch/internal/structural"
)

// The paper's §7 names its next step: "evaluating the quality of match and
// the performance of QMatch with other hybrid and composite algorithms
// such as CUPID and COMA". This file runs that comparison against the
// COMA-style composite built from the same two baselines QMatch embeds.

// ComparisonRow is one domain of the QMatch vs CUPID vs composite
// comparison.
type ComparisonRow struct {
	Domain    string
	Hybrid    match.Evaluation
	Cupid     match.Evaluation
	Composite match.Evaluation
}

// CompositeComparison evaluates QMatch against the two systems the
// paper's conclusion plans to compare with: a full CUPID TreeMatch and a
// COMA-style composite of the linguistic+structural baselines (average
// aggregation, MaxDelta selection), on the corpus quality tasks.
func CompositeComparison() []ComparisonRow {
	hybrid := core.NewHybrid(nil)
	cup := cupid.New(nil)
	comp := composite.New(linguistic.New(nil), structural.New())
	comp.Select.Threshold = 0.75
	var rows []ComparisonRow
	for _, p := range dataset.Pairs() {
		rows = append(rows, ComparisonRow{
			Domain:    p.Name,
			Hybrid:    match.Evaluate(hybrid.Match(p.Source, p.Target), p.Gold),
			Cupid:     match.Evaluate(cup.Match(p.Source, p.Target), p.Gold),
			Composite: match.Evaluate(comp.Match(p.Source, p.Target), p.Gold),
		})
	}
	return rows
}

// FormatComparison renders the comparison.
func FormatComparison(rows []ComparisonRow) string {
	var b strings.Builder
	b.WriteString("Extension: QMatch vs CUPID vs COMA-style composite (Overall / F1)\n")
	fmt.Fprintf(&b, "%-8s %18s %18s %18s\n", "Domain", "Hybrid", "CUPID", "Composite")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9.2f / %.2f %10.2f / %.2f %10.2f / %.2f\n",
			r.Domain,
			r.Hybrid.Overall, r.Hybrid.F1,
			r.Cupid.Overall, r.Cupid.F1,
			r.Composite.Overall, r.Composite.F1)
	}
	return b.String()
}

// AblationSelection compares greedy 1:1 selection against the globally
// optimal (Hungarian) assignment over the same hybrid pair tables.
func AblationSelection() []AblationRow {
	hybrid := core.NewHybrid(nil)
	var rows []AblationRow
	for _, p := range dataset.Pairs() {
		res := hybrid.Tree(p.Source, p.Target)
		// The same candidates Hybrid.Match selects from; both selections
		// drop pairs below the threshold anyway.
		scored := res.Candidates(hybrid.SelectionThreshold, hybrid.RequireLabelEvidence)
		res.Release()
		rows = append(rows, AblationRow{
			Domain:  p.Name,
			Default: match.Evaluate(match.Select(scored, hybrid.SelectionThreshold), p.Gold),
			Variant: match.Evaluate(match.SelectOptimal(scored, hybrid.SelectionThreshold), p.Gold),
		})
	}
	return rows
}
