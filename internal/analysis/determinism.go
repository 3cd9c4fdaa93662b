package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkDeterminism enforces serial-mode bit-replayability (DESIGN.md): in
// every package reachable from the configured roots it flags
//
//   - time.Now / time.Since / time.Until — wall-clock reads feeding
//     fuzzing decisions break replay;
//   - time.NewTicker / Tick / After / AfterFunc / NewTimer / Sleep —
//     clock-driven scheduling decides when something happens, and so what
//     the fuzzing loop observes;
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Shuffle,
//     ...) — only explicitly seeded *rand.Rand streams are replayable;
//   - ranging over a map — iteration order is randomized per run, so any
//     order-dependent fold diverges across replays.
//
// The one idiom it recognizes as safe without a waiver is collect-then-sort:
// a range body that only appends keys/values to slices which a later
// statement in the same block sorts. Everything else needs a
// //droidvet:nondet waiver stating why the site cannot desynchronize a
// replay (order-independent folds, wall-clock that never reaches the
// engine's decision path, ...).
func checkDeterminism(prog *Program, cfg Config) []Diagnostic {
	if len(cfg.DeterminismRoots) == 0 {
		return nil
	}
	checked := closure(prog, cfg.DeterminismRoots)
	var diags []Diagnostic
	for _, path := range prog.SortedPaths() {
		if !checked[path] {
			continue
		}
		pkg := prog.Pkgs[path]
		for _, f := range pkg.Files {
			diags = append(diags, determinismFile(prog, pkg, f)...)
		}
	}
	return diags
}

func determinismFile(prog *Program, pkg *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Fset.Position(n.Pos()),
			Pass:    PassDeterminism,
			Message: fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pkgName, fnName := pkgLevelCall(pkg.Info, n)
			switch pkgName {
			case "time":
				switch fnName {
				case "Now", "Since", "Until":
					report(n, "time.%s reads the wall clock on a replay-sensitive path", fnName)
				case "NewTicker", "Tick", "After", "AfterFunc", "NewTimer", "Sleep":
					report(n, "time.%s schedules by the clock on a replay-sensitive path", fnName)
				}
			case "math/rand", "math/rand/v2":
				switch fnName {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8", "Int63n":
					// Constructors are the deterministic pattern; Int63n et
					// al as *Rand methods resolve through Selections, not
					// here.
				default:
					report(n, "global math/rand source (rand.%s) is not replayable; draw from a seeded *rand.Rand", fnName)
				}
			}
		case *ast.RangeStmt:
			t := pkg.Info.Types[n.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if !collectThenSorted(pkg.Info, n) {
				report(n, "map iteration order is randomized; sort the keys or waive with //droidvet:nondet if provably order-independent")
			}
		}
		return true
	})
	return diags
}

// pkgLevelCall reports the (import path, function name) of a direct
// package-level call like time.Now() or rand.Intn(n); empty strings
// otherwise (methods, locals, shadowed package names).
func pkgLevelCall(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// collectThenSorted recognizes the safe map-range idiom: the loop body only
// appends the key/value to local slices (possibly guarded by ifs), and a
// later statement in the enclosing function sorts every slice so collected.
func collectThenSorted(info *types.Info, rng *ast.RangeStmt) bool {
	targets := appendOnlyTargets(info, rng.Body.List)
	if len(targets) == 0 {
		return false
	}
	// Find the enclosing function body... we only have the range node here,
	// so instead scan forward: any call to a recognized sort function over
	// one of the collected slices anywhere after the loop in the same file
	// would do, but "same file" is too loose. The practical compromise:
	// require the sort to use the same variable object; a later re-collect
	// into the same slice would re-flag at its own range site anyway.
	sorted := false
	for obj := range targets {
		if sortedLater(info, obj, rng) {
			sorted = true
		} else {
			return false
		}
	}
	return sorted
}

// appendOnlyTargets returns the variable objects appended to when every
// statement of body is `x = append(x, ...)` (or an if/block holding only
// such appends); nil when the body does anything else.
func appendOnlyTargets(info *types.Info, body []ast.Stmt) map[types.Object]bool {
	targets := make(map[types.Object]bool)
	var ok func(list []ast.Stmt) bool
	ok = func(list []ast.Stmt) bool {
		for _, st := range list {
			switch st := st.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
					return false
				}
				lhs, isIdent := st.Lhs[0].(*ast.Ident)
				call, isCall := st.Rhs[0].(*ast.CallExpr)
				if !isIdent || !isCall {
					return false
				}
				fn, isFnIdent := ast.Unparen(call.Fun).(*ast.Ident)
				if !isFnIdent || fn.Name != "append" {
					return false
				}
				obj := info.Uses[lhs]
				if obj == nil {
					obj = info.Defs[lhs]
				}
				if obj == nil {
					return false
				}
				targets[obj] = true
			case *ast.IfStmt:
				if st.Init != nil && !ok([]ast.Stmt{st.Init}) {
					// Allow `if _, dup := m[k]; ...` style inits: they are
					// reads, not folds. Treat any init as acceptable if it
					// is an assignment without append — conservative: reject.
					return false
				}
				if !ok(st.Body.List) {
					return false
				}
				if st.Else != nil {
					eb, isBlock := st.Else.(*ast.BlockStmt)
					if !isBlock || !ok(eb.List) {
						return false
					}
				}
			case *ast.BlockStmt:
				if !ok(st.List) {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !ok(body) {
		return nil
	}
	return targets
}

// sortFuncs are the recognized sorters for the collect-then-sort idiom.
var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Slice": true, "SliceStable": true, "Sort": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedLater reports whether obj is passed as the first argument of a
// recognized sort call positioned after the range statement, within the
// same file scope (the type checker guarantees object identity, so a hit
// in an unrelated function cannot occur — distinct functions have distinct
// variable objects).
func sortedLater(info *types.Info, obj types.Object, rng *ast.RangeStmt) bool {
	found := false
	for expr := range info.Types {
		call, isCall := expr.(*ast.CallExpr)
		if !isCall || call.Pos() <= rng.End() || len(call.Args) == 0 {
			continue
		}
		path, name := pkgLevelCall(info, call)
		short := path
		if i := lastSlash(path); i >= 0 {
			short = path[i+1:]
		}
		if !sortFuncs[short][name] {
			continue
		}
		arg, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !isIdent {
			continue
		}
		if info.Uses[arg] == obj {
			found = true
		}
	}
	return found
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
