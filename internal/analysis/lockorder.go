package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkLockOrder records the mutex acquisition order across the configured
// lock-carrying types (adb.Stream, adb.Resilient, feedback.SpecTable,
// daemon.Daemon, relation.Graph) and flags
//
//   - inversions: some path acquires A's mutex while holding B's and
//     another acquires B's while holding A's — the classic deadlock pair;
//   - self-nesting: a function that (transitively) re-acquires the same
//     type's sync.Mutex while holding it, which self-deadlocks.
//
// The analysis is static and conservative: per function it tracks which
// monitored locks are held between Lock and Unlock in statement order
// (defer Unlock holds to function end), propagates "may acquire" sets over
// the static call graph to a fixpoint, and records an ordered pair at every
// call made while a monitored lock is held. Dynamic dispatch (interface
// method calls) is not resolved — callees behind an interface contribute
// nothing — so the pass under-approximates; it exists to catch the
// in-module concrete paths where all our shared state lives.
func checkLockOrder(prog *Program, cfg Config) []Diagnostic {
	if len(cfg.LockTypes) == 0 {
		return nil
	}
	lc := &lockChecker{prog: prog, monitored: make(map[*types.Named]string)}
	for _, tp := range cfg.LockTypes {
		if tn := lookupNamed(prog, tp); tn != nil {
			if named, ok := tn.Type().(*types.Named); ok {
				lc.monitored[named.Origin()] = shortTypeName(tp)
			}
		}
	}
	if len(lc.monitored) == 0 {
		return nil
	}
	lc.collectFuncs()
	lc.propagate()
	lc.recordPairs()
	return lc.inversions()
}

func shortTypeName(typePath string) string {
	if i := strings.LastIndex(typePath, "/"); i >= 0 {
		return typePath[i+1:]
	}
	return typePath
}

// lockEvent is one acquisition or release site inside a function body.
type lockEvent struct {
	pos      token.Pos
	typ      *types.Named // monitored owner type
	acquire  bool
	deferred bool
	rlock    bool
}

// funcInfo is the per-function lock behavior.
type funcInfo struct {
	decl   *ast.FuncDecl
	pkg    *Package
	events []lockEvent
	calls  []callSite
	// acq is the may-acquire set: monitored types this function (or any
	// static callee, transitively) may lock.
	acq map[*types.Named]bool
}

type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// orderedPair is one observed "holds A, acquires B" edge.
type orderedPair struct {
	from, to *types.Named
	pos      token.Pos
	fn       *types.Func
}

type lockChecker struct {
	prog      *Program
	monitored map[*types.Named]string
	funcs     map[*types.Func]*funcInfo
	pairs     []orderedPair
}

// monitoredRecv resolves an expression like `x.mu` to the monitored type
// owning the mutex field, or nil.
func (lc *lockChecker) monitoredRecv(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	// sel is `x.mu` inside `x.mu.Lock()`: the receiver expression is sel.X.
	t := info.Types[sel.X].Type
	if t == nil {
		return nil
	}
	named := namedOf(t)
	if named == nil {
		return nil
	}
	named = named.Origin()
	if _, ok := lc.monitored[named]; !ok {
		return nil
	}
	return named
}

// lockCall decodes a statement expression as a mutex operation on a
// monitored type: `x.mu.Lock()`, `x.mu.RLock()`, `x.mu.Unlock()`,
// `x.mu.RUnlock()` where x's type is monitored and mu is a sync.Mutex or
// sync.RWMutex field.
func (lc *lockChecker) lockCall(info *types.Info, call *ast.CallExpr) (typ *types.Named, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	muType := info.Types[muSel].Type
	if muType == nil || !isSyncMutex(muType) {
		return nil, ""
	}
	typ = lc.monitoredRecv(info, muSel)
	if typ == nil {
		return nil, ""
	}
	return typ, op
}

func isSyncMutex(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// collectFuncs scans every function for lock events and static call sites,
// in source order.
func (lc *lockChecker) collectFuncs() {
	lc.funcs = make(map[*types.Func]*funcInfo)
	for _, path := range lc.prog.SortedPaths() {
		pkg := lc.prog.Pkgs[path]
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
				fi := &funcInfo{decl: fd, pkg: pkg, acq: make(map[*types.Named]bool)}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.DeferStmt:
						if typ, op := lc.lockCall(pkg.Info, n.Call); typ != nil {
							fi.events = append(fi.events, lockEvent{
								pos: n.Pos(), typ: typ,
								acquire:  op == "Lock" || op == "RLock",
								deferred: true,
								rlock:    strings.HasPrefix(op, "R"),
							})
							return false
						}
					case *ast.CallExpr:
						if typ, op := lc.lockCall(pkg.Info, n); typ != nil {
							fi.events = append(fi.events, lockEvent{
								pos: n.Pos(), typ: typ,
								acquire: op == "Lock" || op == "RLock",
								rlock:   strings.HasPrefix(op, "R"),
							})
							if op == "Lock" || op == "RLock" {
								fi.acq[typ] = true
							}
							return true
						}
						if callee := calleeOf(pkg.Info, n); callee != nil {
							fi.calls = append(fi.calls, callSite{pos: n.Pos(), callee: callee})
						}
					case *ast.FuncLit:
						// Closure bodies run at unknown times (goroutines,
						// deferred hooks); their lock events are attributed
						// to their own synthetic scope, not this function.
						// Static calls inside still matter for the
						// may-acquire set only if invoked here — skip, stay
						// conservative.
						return false
					}
					return true
				})
				sort.Slice(fi.events, func(i, j int) bool { return fi.events[i].pos < fi.events[j].pos })
				sort.Slice(fi.calls, func(i, j int) bool { return fi.calls[i].pos < fi.calls[j].pos })
				lc.funcs[fn] = fi
			}
		}
	}
}

// propagate computes the transitive may-acquire sets over the static call
// graph to a fixpoint.
func (lc *lockChecker) propagate() {
	changed := true
	for changed {
		changed = false
		for _, fi := range lc.funcs {
			for _, cs := range fi.calls {
				callee, ok := lc.funcs[cs.callee]
				if !ok {
					continue
				}
				for t := range callee.acq {
					if !fi.acq[t] {
						fi.acq[t] = true
						changed = true
					}
				}
			}
		}
	}
}

// recordPairs replays every function in statement order, tracking held
// monitored locks and recording (held → acquired) pairs for both direct
// acquisitions and calls into acquiring functions.
func (lc *lockChecker) recordPairs() {
	// Deterministic function order for stable output.
	fns := make([]*types.Func, 0, len(lc.funcs))
	for fn := range lc.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	for _, fn := range fns {
		fi := lc.funcs[fn]
		type heldLock struct {
			typ   *types.Named
			rlock bool
		}
		var held []heldLock
		drop := func(t *types.Named) {
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].typ == t {
					held = append(held[:i], held[i+1:]...)
					return
				}
			}
		}
		// Interleave events and calls by position.
		ei, ci := 0, 0
		for ei < len(fi.events) || ci < len(fi.calls) {
			useEvent := ci >= len(fi.calls) ||
				(ei < len(fi.events) && fi.events[ei].pos <= fi.calls[ci].pos)
			if useEvent {
				ev := fi.events[ei]
				ei++
				if ev.acquire {
					for _, h := range held {
						lc.pairs = append(lc.pairs, orderedPair{from: h.typ, to: ev.typ, pos: ev.pos, fn: fn})
					}
					held = append(held, heldLock{typ: ev.typ, rlock: ev.rlock})
				} else if !ev.deferred {
					drop(ev.typ)
				}
				continue
			}
			cs := fi.calls[ci]
			ci++
			if len(held) == 0 {
				continue
			}
			callee, ok := lc.funcs[cs.callee]
			if !ok {
				continue
			}
			for t := range callee.acq {
				for _, h := range held {
					lc.pairs = append(lc.pairs, orderedPair{from: h.typ, to: t, pos: cs.pos, fn: fn})
				}
			}
		}
	}
}

// inversions reports A→B vs B→A conflicts and A→A self-nesting.
func (lc *lockChecker) inversions() []Diagnostic {
	type key struct{ from, to *types.Named }
	first := make(map[key]orderedPair)
	for _, p := range lc.pairs {
		k := key{p.from, p.to}
		if _, ok := first[k]; !ok {
			first[k] = p
		}
	}
	var diags []Diagnostic
	emit := func(p orderedPair, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     lc.prog.Fset.Position(p.pos),
			Pass:    PassLockorder,
			Message: fmt.Sprintf(format, args...),
		})
	}
	seen := make(map[key]bool)
	// Deterministic iteration over the recorded pair list (insertion
	// order), not the map.
	for _, p := range lc.pairs {
		k := key{p.from, p.to}
		if seen[k] {
			continue
		}
		seen[k] = true
		if p.from == p.to {
			emit(first[k], "%s re-acquires its own mutex while holding it in %s (self-deadlock)",
				lc.monitored[p.from], p.fn.FullName())
			continue
		}
		rk := key{p.to, p.from}
		if rev, ok := first[rk]; ok && !seen[rk] {
			revPos := lc.prog.Fset.Position(rev.pos)
			emit(first[k], "lock-order inversion: %s acquired while holding %s in %s, but %s is acquired while holding %s at %s:%d (in %s)",
				lc.monitored[p.to], lc.monitored[p.from], p.fn.FullName(),
				lc.monitored[p.from], lc.monitored[p.to],
				shortFile(revPos.Filename), revPos.Line, rev.fn.FullName())
		}
	}
	return diags
}
