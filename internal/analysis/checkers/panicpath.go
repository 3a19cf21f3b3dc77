package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// defaultPanicExempt are the module subtrees where naked panics are
// accepted wholesale: binaries and examples (a crash is the report), the
// model zoo (must-style static catalog construction), and the benchmark
// harness. Everywhere else — the library packages results depend on — a
// panic must be a deliberate cross-check oracle carrying an
// //optimus:allow panicpath directive, never an error-handling shortcut.
var defaultPanicExempt = []string{
	"repro/cmd/",
	"repro/examples/",
	"repro/internal/zoo",
	"repro/internal/experiments",
}

// Panicpath restricts naked panic( calls in library packages to documented
// cross-check oracles.
type Panicpath struct {
	// Exempt lists import-path prefixes (trailing slash) or exact paths
	// excluded from the restriction.
	Exempt []string
}

// DefaultPanicpath returns the checker with the project exemption list.
func DefaultPanicpath() *Panicpath { return &Panicpath{Exempt: defaultPanicExempt} }

// Name implements analysis.Checker.
func (pp *Panicpath) Name() string { return "panicpath" }

// Doc implements analysis.Checker.
func (pp *Panicpath) Doc() string {
	return "restricts naked panic( in library packages to documented cross-check oracles"
}

// Run implements analysis.Checker.
func (pp *Panicpath) Run(p *analysis.Pass) {
	for _, ex := range pp.Exempt {
		if p.Path == ex || p.Path == strings.TrimSuffix(ex, "/") ||
			(strings.HasSuffix(ex, "/") && strings.HasPrefix(p.Path, ex)) ||
			strings.HasPrefix(p.Path, ex+"/") {
			return
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if bi, ok := p.Info.Uses[id].(*types.Builtin); !ok || bi.Name() != "panic" {
				return true
			}
			p.Reportf(pp.Name(), call.Pos(),
				"naked panic in library package %s: return an error, or mark a cross-check oracle with //optimus:allow panicpath — <reason>", p.Path)
			return true
		})
	}
}
