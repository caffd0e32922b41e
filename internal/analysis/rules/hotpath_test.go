package rules_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"

	"fairgossip/internal/analysis"
	"fairgossip/internal/analysis/rules"
)

// pinnedHotpaths are the per-round and per-message functions the repo
// has committed to keeping allocation-aware: each must carry the
// //fair:hotpath annotation so the hotpath rule audits its body on
// every fairvet run. Deleting an annotation fails this test — the pin
// is on the contract, not just the analyzer.
var pinnedHotpaths = []struct{ file, fn string }{
	{"../../gossip/peer.go", "Round"},
	{"../../eventsim/sim.go", "ScheduleMsg"},
	{"../../simnet/net.go", "Send"},
	{"../../live/live.go", "round"},
	{"../../live/live.go", "Push"},
	{"../../proto/peer.go", "Disseminate"},
	{"../../proto/peer.go", "Receive"},
	{"../../randutil/perm.go", "PermInto"},
}

func TestPinnedHotpaths(t *testing.T) {
	fset := token.NewFileSet()
	parsed := make(map[string]*ast.File)
	for _, pin := range pinnedHotpaths {
		f, ok := parsed[pin.file]
		if !ok {
			var err error
			f, err = parser.ParseFile(fset, pin.file, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing %s: %v", pin.file, err)
			}
			parsed[pin.file] = f
		}
		found := false
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != pin.fn {
				continue
			}
			if analysis.HasDirective(fn.Doc, analysis.DirHotpath) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: func %s must carry //fair:hotpath in its doc comment (the pinned per-round path lost its annotation)", pin.file, pin.fn)
		}
	}
}

// TestPinnedHotpathClosure pins the interprocedural contract behind
// the annotations. It recomputes the transitive closure of the eight
// pinned hot paths — every function they reach through statically
// resolved, unhatched ordinary calls — and asserts (a) the closure
// actually extends beyond the annotated bodies, (b) it crosses the
// package boundary the facts layer exists for (the peer core's push
// round into the buffer's selection helper), and (c) the hotpath rule
// finds nothing anywhere in the tree, so every closure member is
// allocation-free, not just the eight annotated roots.
func TestPinnedHotpathClosure(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}

	type node struct {
		fn    *types.Func
		calls []analysis.CallSite
		fset  *token.FileSet
	}
	byID := make(map[string]*node)
	hatched := make(map[string]map[int]bool) // file → lines with //fair:ignore hotpath
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range analysis.ParseDirectives(f) {
				if d.Kind == analysis.DirIgnore && d.Rule == "hotpath" {
					p := pkg.Fset.Position(d.Comment.Pos())
					if hatched[p.Filename] == nil {
						hatched[p.Filename] = make(map[int]bool)
					}
					hatched[p.Filename][p.Line] = true
				}
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				byID[analysis.FuncID(fn)] = &node{fn: fn, calls: analysis.CalleesIn(pkg.Info, fd.Body), fset: pkg.Fset}
			}
		}
	}

	// Seed the walk with the pinned functions, located by package path
	// (derived from the pin's file) and name.
	var queue []string
	for _, pin := range pinnedHotpaths {
		pkgPath := "fairgossip/internal/" + filepath.Base(filepath.Dir(pin.file))
		found := false
		for id, n := range byID {
			if n.fn.Pkg() != nil && n.fn.Pkg().Path() == pkgPath && n.fn.Name() == pin.fn {
				queue = append(queue, id)
				found = true
			}
		}
		if !found {
			t.Fatalf("pinned hot path %s.%s not found in the loaded tree", pkgPath, pin.fn)
		}
	}
	sort.Strings(queue)
	seeds := len(queue)

	closure := make(map[string]bool)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if closure[id] {
			continue
		}
		closure[id] = true
		n := byID[id]
		for _, call := range n.calls {
			if call.Kind != analysis.EdgeCall || call.Callee == nil || call.Iface {
				continue
			}
			p := n.fset.Position(call.Pos)
			if hatched[p.Filename][p.Line] || hatched[p.Filename][p.Line-1] {
				continue // audited at the site: outside the allocation-free contract
			}
			cid := analysis.FuncID(call.Callee)
			if _, local := byID[cid]; local && !closure[cid] {
				queue = append(queue, cid)
			}
		}
	}

	if len(closure) <= seeds {
		t.Errorf("transitive closure has %d members for %d pins: the pinned paths should reach their helpers", len(closure), seeds)
	}
	const crossPkg = "(*fairgossip/internal/gossip.Buffer).SelectInto"
	if !closure[crossPkg] {
		t.Errorf("closure is missing %s: the peer core's push round no longer reaches the buffer selection helper across packages (closure: %d members)", crossPkg, len(closure))
	}

	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{rules.Hotpath}, rules.Known())
	if err != nil {
		t.Fatalf("running hotpath: %v", err)
	}
	for _, f := range findings {
		t.Errorf("hotpath closure is not allocation-free: %s", f)
	}
}

// TestFairvetClean is the same gate `make lint` enforces, as a test:
// the whole tree carries zero unsuppressed findings and every escape
// hatch is justified and live.
func TestFairvetClean(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	findings, err := analysis.Run(pkgs, rules.All(), nil)
	if err != nil {
		t.Fatalf("running fairvet: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
