package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// declIndex is the shared AST/type index built once per Analyze run and
// reused by every pass that needs to resolve functions to their bodies
// (checkpoint's method-closure walks, golifetime's spawn resolution, the
// atomics published-set derivation). Building it is a single linear sweep
// over the already type-checked program, so the expensive work — parsing
// and go/types loading — stays amortized across all passes.
type declIndex struct {
	// funcs maps every function or method object declared with a body to
	// its declaration and owning package.
	funcs map[*types.Func]bodyDecl
	// methods maps a named type to its declared methods by name (value and
	// pointer receivers alike).
	methods map[*types.TypeName]map[string]*types.Func
}

// bodyDecl pairs a declaration with the package whose Info resolves its
// identifiers.
type bodyDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// index returns the program's declaration index, building it on first use.
func (p *Program) index() *declIndex {
	if p.idx != nil {
		return p.idx
	}
	idx := &declIndex{
		funcs:   make(map[*types.Func]bodyDecl),
		methods: make(map[*types.TypeName]map[string]*types.Func),
	}
	for _, path := range p.SortedPaths() {
		pkg := p.Pkgs[path]
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := funcFor(pkg, fd)
				if fn == nil {
					continue
				}
				idx.funcs[fn] = bodyDecl{pkg: pkg, decl: fd}
				if recv := fn.Signature().Recv(); recv != nil {
					if named := namedOf(recv.Type()); named != nil {
						tn := named.Obj()
						if idx.methods[tn] == nil {
							idx.methods[tn] = make(map[string]*types.Func)
						}
						idx.methods[tn][fn.Name()] = fn
					}
				}
			}
		}
	}
	p.idx = idx
	return idx
}

// methodClosure walks the static call graph from the named root methods of
// tn, staying on methods of tn itself, and returns the reachable method
// bodies in deterministic order. Methods named in skip are never entered —
// the checkpoint pass uses this to keep e.g. Restore's closure from
// satisfying itself through a Checkpoint body it happens to call.
func (idx *declIndex) methodClosure(tn *types.TypeName, roots []string, skip map[string]bool) []bodyDecl {
	seen := make(map[string]bool)
	var out []bodyDecl
	var walk func(name string)
	walk = func(name string) {
		if seen[name] || skip[name] {
			return
		}
		seen[name] = true
		fn := idx.methods[tn][name]
		if fn == nil {
			return
		}
		bd, ok := idx.funcs[fn]
		if !ok {
			return
		}
		out = append(out, bd)
		ast.Inspect(bd.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(bd.pkg.Info, call)
			if callee == nil {
				return true
			}
			recv := callee.Signature().Recv()
			if recv == nil {
				return true
			}
			if named := namedOf(recv.Type()); named != nil && named.Obj() == tn {
				walk(callee.Name())
			}
			return true
		})
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// Field-use kinds recorded by collectFieldUses.
const (
	useRead  = 1 << iota // selector access in a read position
	useWrite             // selector (or element) on the left of an assignment
	useKey               // populated through a composite-literal key
)

// fieldOwners maps every direct field of the target structs back to its
// owning type name, so a types.Selection hit resolves in O(1).
func fieldOwners(targets map[*types.TypeName]bool) map[*types.Var]*types.TypeName {
	owners := make(map[*types.Var]*types.TypeName)
	for tn := range targets {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			owners[st.Field(i)] = tn
		}
	}
	return owners
}

// collectFieldUses walks the given bodies and records how each direct field
// of the target types is used: read through a selector, written through a
// selector (including element/indexed writes like st.m[k] = v), or
// populated as a composite-literal key. Positional (unkeyed) struct
// literals of a target type mark every field as keyed — the compiler
// already forces them to be exhaustive.
func collectFieldUses(bodies []bodyDecl, owners map[*types.Var]*types.TypeName, uses map[*types.Var]int) {
	for _, bd := range bodies {
		info := bd.pkg.Info
		// writeRoots collects, per body, the field selectors that sit under
		// an assignment LHS or ++/--; everything else seen is a read.
		writeRoots := make(map[ast.Expr]bool)
		markWrite := func(lhs ast.Expr) {
			for {
				lhs = ast.Unparen(lhs)
				switch e := lhs.(type) {
				case *ast.SelectorExpr:
					writeRoots[lhs] = true
					lhs = e.X
				case *ast.IndexExpr:
					lhs = e.X
				case *ast.StarExpr:
					lhs = e.X
				default:
					return
				}
			}
		}
		ast.Inspect(bd.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			}
			return true
		})
		ast.Inspect(bd.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				f, ok := sel.Obj().(*types.Var)
				if !ok {
					return true
				}
				if _, hit := owners[f]; !hit {
					return true
				}
				if writeRoots[n] {
					uses[f] |= useWrite
				} else {
					uses[f] |= useRead
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				named := namedOf(tv.Type)
				if named == nil {
					return true
				}
				st, ok := named.Obj().Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				if len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						// Positional literal: exhaustive by construction.
						for i := 0; i < st.NumFields(); i++ {
							if _, hit := owners[st.Field(i)]; hit {
								uses[st.Field(i)] |= useKey
							}
						}
						return true
					}
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if f.Name() != key.Name {
							continue
						}
						if _, hit := owners[f]; hit {
							uses[f] |= useKey
						}
					}
				}
			}
			return true
		})
	}
}

// assertedStructsIn returns the module-internal named struct types the
// given bodies type-assert to (x.(T), x.(*T), or a type-switch case) — the
// derivation the checkpoint pass uses to find state payload types without
// registering them one by one. Assertion, not construction, is the
// discriminator: Restore always asserts its `any` argument down to the
// payload, while deep-copy helpers construct plenty of element types that
// are not payloads.
func assertedStructsIn(prog *Program, bodies []bodyDecl) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	record := func(e ast.Expr, info *types.Info) {
		if e == nil {
			return
		}
		tv, ok := info.Types[e]
		if !ok {
			return
		}
		named := namedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			return
		}
		if _, internal := prog.Pkgs[named.Obj().Pkg().Path()]; internal {
			out[named.Obj()] = true
		}
	}
	for _, bd := range bodies {
		info := bd.pkg.Info
		ast.Inspect(bd.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				record(n.Type, info) // nil Type (x.(type)) records nothing
			case *ast.TypeSwitchStmt:
				for _, stmt := range n.Body.List {
					if cc, ok := stmt.(*ast.CaseClause); ok {
						for _, t := range cc.List {
							record(t, info)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// sortedTypeNames orders type names by package path then name for
// deterministic diagnostics.
func sortedTypeNames(set map[*types.TypeName]bool) []*types.TypeName {
	out := make([]*types.TypeName, 0, len(set))
	for tn := range set {
		out = append(out, tn)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := "", ""
		if out[i].Pkg() != nil {
			pi = out[i].Pkg().Path()
		}
		if out[j].Pkg() != nil {
			pj = out[j].Pkg().Path()
		}
		if pi != pj {
			return pi < pj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// shortName renders a *types.TypeName as "pkg.Name" for messages.
func shortName(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return shortTypeName(tn.Pkg().Path() + "." + tn.Name())
}
