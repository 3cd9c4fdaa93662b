package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkGoLifetime ties every goroutine spawned in the configured roots'
// import closure to a shutdown path. The daemon owns process lifetime: a
// worker that outlives Run keeps a device handle, a ticker, or a transport
// buffer alive across campaigns, and the leak only shows up as fd
// exhaustion hours into a fleet run. The pass proves, per `go` statement:
//
//   - the spawned body is statically resolvable (a func literal or a
//     module function/method); dynamic spawns (`go fn()` through a
//     function value) cannot be proven and are flagged;
//   - every unbounded loop in the body (a `for` with no condition) is tied
//     to shutdown. A loop that selects must have a case receiving from a
//     registered shutdown channel (GoShutdownChans matches the channel's
//     identifier, field, or method name — "quit", or "Done" for
//     ctx.Done()): exiting on an unregistered channel is invisible to the
//     daemon's close sequence, so it does not count. A select-free loop may
//     instead exit through a plain return (the transport readLoop idiom:
//     decode error → fail → return, with Close unblocking the decode).
//
// Bounded loops (`for i := 0; i < n; ...`), range loops (a range over a
// channel ends when the daemon closes it), and loop-free bodies need no
// tie. A deliberate leak is waived with //droidvet:golifetime on the spawn
// line.
func checkGoLifetime(prog *Program, cfg Config) []Diagnostic {
	if len(cfg.GoroutineRoots) == 0 {
		return nil
	}
	scope := closure(prog, cfg.GoroutineRoots)
	chans := make(map[string]bool, len(cfg.GoShutdownChans))
	for _, c := range cfg.GoShutdownChans {
		chans[c] = true
	}
	idx := prog.index()

	var diags []Diagnostic
	for _, path := range prog.SortedPaths() {
		if !scope[path] {
			continue
		}
		pkg := prog.Pkgs[path]
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				diags = append(diags, checkSpawn(prog, idx, pkg, gs, chans)...)
				return true
			})
		}
	}
	return diags
}

// checkSpawn resolves one go statement's body and vets its loops.
func checkSpawn(prog *Program, idx *declIndex, pkg *Package, gs *ast.GoStmt, chans map[string]bool) []Diagnostic {
	report := func(format string, args ...any) []Diagnostic {
		return []Diagnostic{{
			Pos:     prog.Fset.Position(gs.Pos()),
			Pass:    PassGoLifetime,
			Message: fmt.Sprintf(format, args...),
		}}
	}

	var body *ast.BlockStmt
	var what string
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body, what = fun.Body, "goroutine"
	default:
		callee := calleeOf(pkg.Info, gs.Call)
		if callee == nil {
			return report("goroutine spawns a dynamically resolved function; its lifetime cannot be proven — spawn a named function or waive with //droidvet:golifetime")
		}
		bd, ok := idx.funcs[callee]
		if !ok {
			// A function outside the module (stdlib helpers); its lifetime is
			// bounded by its own contract, not ours.
			return nil
		}
		body, what = bd.decl.Body, callee.Name()
	}

	var diags []Diagnostic
	forEachOutsideFuncLit(body, func(n ast.Node) {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			return // bounded loop (or a RangeStmt, which terminates on close)
		}
		if loopTied(pkg.Info, fs.Body, chans) {
			return
		}
		diags = append(diags, report(
			"%s runs an unbounded for loop (line %d) with no exit tied to a registered shutdown channel; select on a done/quit channel the daemon closes, or waive with //droidvet:golifetime",
			what, prog.Fset.Position(fs.Pos()).Line)...)
	})
	return diags
}

// loopTied decides whether one unbounded loop body has a provable exit: a
// receive from a registered shutdown channel, or — only when the loop never
// selects — a plain return (the error-exit idiom, where closing the
// underlying stream forces the blocking call to fail).
func loopTied(info *types.Info, body *ast.BlockStmt, chans map[string]bool) bool {
	selects, returns, registered := false, false, false
	forEachOutsideFuncLit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectStmt:
			selects = true
		case *ast.ReturnStmt:
			returns = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chans[chanName(n.X)] && isChanRecv(info, n.X) {
				registered = true
			}
		case *ast.RangeStmt:
			if chans[chanName(n.X)] && isChanRecv(info, n.X) {
				registered = true
			}
		}
	})
	if registered {
		return true
	}
	return returns && !selects
}

// chanName names the channel expression a receive reads from: the
// identifier, the selected field, or the called method (ctx.Done() → "Done").
func chanName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return chanName(e.Fun)
	}
	return ""
}

// isChanRecv confirms the expression's static type really is a receivable
// channel, so a field that merely shares a registered name cannot satisfy
// the tie.
func isChanRecv(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	return ok && ch.Dir() != types.SendOnly
}

// forEachOutsideFuncLit visits every node under root except those inside
// nested function literals: a closure's loops belong to whoever eventually
// calls it, not to this goroutine.
func forEachOutsideFuncLit(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
