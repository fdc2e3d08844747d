package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// TestLedgerGolden pins the paper's side of the reproduction: every
// quantity, the paper's numbers and where the reproduced value comes
// from.
func TestLedgerGolden(t *testing.T) {
	tab := stats.NewTable("Id", "Quantity", "Paper", "Kind", "Note")
	for _, r := range ledger {
		tab.AddRow(r.id, r.quantity, r.paper, string(r.kind), r.note)
	}
	goldenCompare(t, "ledger.golden", tab.String())
}

// TestLedgerInputsArePlanted holds each input row to the model constant
// that plants it, so re-tuning one of them fails here instead of
// passing for a reproduced number. The paper prints percentages to one
// decimal; a planted share must round to them.
func TestLedgerInputsArePlanted(t *testing.T) {
	pop := geo.DefaultPopulationConfig(0)
	var cloud float64
	for _, p := range geo.CloudProviders {
		cloud += p.Share
	}
	planted := map[string][]float64{
		"t2.top10":        {geo.NewASModel().TopShare(10)},
		"t3.cloud":        {cloud},
		"f7a.reliable":    {pop.FracReliable},
		"f7b.unreachable": {pop.FracUnreachable},
		"f6.users":        {geo.GatewayUserShares[0].Share, geo.GatewayUserShares[1].Share, geo.GatewayUserShares[2].Share},
	}
	number := regexp.MustCompile(`\d+(\.\d+)?`)
	var inputs []string
	for _, r := range ledger {
		if r.kind != kindInput {
			continue
		}
		inputs = append(inputs, r.id)
		want, ok := planted[r.id]
		if !ok {
			t.Errorf("%s is an input row, but no planted constant is checked for it", r.id)
			continue
		}
		paper := number.FindAllString(r.paper, -1)
		if len(paper) != len(want) {
			t.Errorf("%s: paper %q has %d numbers, %d planted", r.id, r.paper, len(paper), len(want))
			continue
		}
		for i, s := range paper {
			pct, _ := strconv.ParseFloat(s, 64)
			if math.Abs(100*want[i]-pct) > 0.05+1e-9 {
				t.Errorf("%s: planted %.4f does not round to the paper's %s%%", r.id, want[i], s)
			}
		}
	}
	if len(inputs) != len(planted) {
		t.Errorf("input rows %v, want exactly %d", inputs, len(planted))
	}
}

// TestPaperNumbersOnlyInLedger: no string literal outside ledger.go
// says "paper", so every paper number a render prints comes from the
// ledger. Comments may still cite the paper.
func TestPaperNumbersOnlyInLedger(t *testing.T) {
	planted := `package p

// Comments may say paper.
var s = fmt.Sprintf("%d (paper: 64.9%%)", 1)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", planted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := paperLiterals(fset, f); len(got) != 1 {
		t.Fatalf("planted violation: found %v, want one literal", got)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if name == "ledger.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range paperLiterals(fset, f) {
			t.Errorf("%s: a paper number belongs in ledger.go", lit)
		}
	}
}

// paperLiterals lists the position and text of every string literal in
// f that contains "paper".
func paperLiterals(fset *token.FileSet, f *ast.File) []string {
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING &&
			strings.Contains(strings.ToLower(lit.Value), "paper") {
			found = append(found, fset.Position(lit.Pos()).String()+" "+lit.Value)
		}
		return true
	})
	return found
}
