package analysis

import (
	"fmt"
	"go/types"
)

// checkCheckpoints proves field-set completeness for every type that
// implements the configured snap.Subsystem interface: the PR 6/PR 8
// restore≡reboot and clone-twin equivalence guarantees only hold if every
// stateful field a campaign can mutate is wound back, and "added a field,
// forgot the checkpoint" is invisible to the compiler and only flaky at
// runtime. The pass closes that hole with field-name closure diffing:
//
//   - subsystem completeness: every stateful field of the implementing
//     struct must be touched by the Checkpoint or Restore method closure
//     (methods of the same type reachable from them). Fields that are
//     deliberately not checkpoint state carry an explicit
//     //droidvet:checkpoint ephemeral <why> annotation on their
//     declaration line (or the line above);
//   - state round-trip: the checkpoint payload types (named structs
//     asserted to inside Checkpoint/Restore) must have every field
//     populated by Checkpoint and read back by Restore — deleting a single
//     field capture fails vet instead of restore;
//   - portability: the payload is also the portable checkpoint, which gob
//     encodes and gob silently skips unexported fields. So every field of
//     a payload type, and of every module struct reachable from it through
//     encoded fields, must be exported — or annotated
//     //droidvet:checkpoint device-local <why> when it deliberately never
//     leaves its device.
//
// Auto-exempt: embedded fields (the snap.Dirty generation counter), sync
// package types (mutexes guard state, they are not state), and fields whose
// own type implements the subsystem interface (sub-subsystems, e.g. a
// driver's *Knobs, are checkpointed by their own methods).
func checkCheckpoints(prog *Program, cfg Config) []Diagnostic {
	if cfg.CheckpointIface == "" {
		return nil
	}
	tn := lookupNamed(prog, cfg.CheckpointIface)
	if tn == nil {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	idx := prog.index()

	var diags []Diagnostic
	portable := make(map[*types.TypeName]bool) // payload structs already checked for portability
	for _, impl := range subsystemImplementers(prog, iface) {
		diags = append(diags, checkOneSubsystem(prog, idx, iface, impl, portable)...)
	}
	return diags
}

// subsystemImplementers returns the module-internal named struct types
// implementing iface (by value or pointer receiver), in deterministic
// order.
func subsystemImplementers(prog *Program, iface *types.Interface) []*types.TypeName {
	set := make(map[*types.TypeName]bool)
	for _, path := range prog.SortedPaths() {
		pkg := prog.Pkgs[path]
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
				continue
			}
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				set[tn] = true
			}
		}
	}
	return sortedTypeNames(set)
}

// The snap.Subsystem method names; closures for one root never descend into
// the others, so each leg of the round-trip is proven by its own code.
var subsystemMethods = map[string]bool{
	"Checkpoint": true, "Restore": true, "Gen": true,
}

func checkOneSubsystem(prog *Program, idx *declIndex, iface *types.Interface, impl *types.TypeName, portable map[*types.TypeName]bool) []Diagnostic {
	closureOf := func(root string) []bodyDecl {
		skip := make(map[string]bool, len(subsystemMethods))
		for m := range subsystemMethods {
			if m != root {
				skip[m] = true
			}
		}
		return idx.methodClosure(impl, []string{root}, skip)
	}
	cpBodies := closureOf("Checkpoint")
	reBodies := closureOf("Restore")

	var diags []Diagnostic
	report := func(f *types.Var, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Fset.Position(f.Pos()),
			Pass:    PassCheckpoint,
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Subsystem completeness: every stateful field of the implementing
	// struct is touched by Checkpoint or Restore.
	own := map[*types.TypeName]bool{impl: true}
	ownOwners := fieldOwners(own)
	ownUses := make(map[*types.Var]int)
	collectFieldUses(append(append([]bodyDecl{}, cpBodies...), reBodies...), ownOwners, ownUses)
	st := impl.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if exemptField(iface, f) {
			continue
		}
		if ownUses[f] == 0 {
			report(f, "stateful field %s.%s is neither captured by Checkpoint nor reset by Restore; checkpoint it or annotate the field //droidvet:checkpoint ephemeral <why>",
				shortName(impl), f.Name())
		}
	}

	// State payload types: what Restore asserts its `any` argument down to.
	// Each payload field must round-trip the checkpoint: populated by
	// Checkpoint, read back by Restore.
	states := assertedStructsIn(prog, append(append([]bodyDecl{}, cpBodies...), reBodies...))
	delete(states, impl)
	stripImplementers(iface, states)
	if len(states) > 0 {
		stOwners := fieldOwners(states)
		cpUses := make(map[*types.Var]int)
		reUses := make(map[*types.Var]int)
		collectFieldUses(cpBodies, stOwners, cpUses)
		collectFieldUses(reBodies, stOwners, reUses)
		for _, stn := range sortedTypeNames(states) {
			ss := stn.Type().Underlying().(*types.Struct)
			for i := 0; i < ss.NumFields(); i++ {
				f := ss.Field(i)
				if exemptField(iface, f) {
					continue
				}
				if cpUses[f]&(useKey|useWrite) == 0 {
					report(f, "checkpoint state field %s.%s is never populated by %s.Checkpoint; the restore reference is incomplete",
						shortName(stn), f.Name(), shortName(impl))
				}
				if reUses[f]&useRead == 0 {
					report(f, "checkpoint state field %s.%s is never read back by %s.Restore; restore≡reboot cannot hold",
						shortName(stn), f.Name(), shortName(impl))
				}
			}
		}
	}

	// Portability: every struct the encoded payload reaches holds exported
	// fields only, bar the annotated device-local ones.
	for _, stn := range sortedTypeNames(states) {
		walkPortable(prog, stn, portable, func(owner *types.TypeName, f *types.Var) {
			report(f, "checkpoint payload field %s.%s is unexported, so gob drops it from the portable checkpoint; export it or annotate it //droidvet:checkpoint device-local <why>",
				shortName(owner), f.Name())
		})
	}
	return diags
}

// walkPortable visits the module struct tn and every module struct
// reachable from its exported fields (through pointers, slices, arrays and
// maps), calling bad for each unexported field. Unexported fields are not
// descended into: gob never encodes them, so what they reach is
// device-local too. seen is shared across the pass so a struct reached
// from several payloads is reported once.
func walkPortable(prog *Program, tn *types.TypeName, seen map[*types.TypeName]bool, bad func(*types.TypeName, *types.Var)) {
	if seen[tn] {
		return
	}
	seen[tn] = true
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			bad(tn, f)
			continue
		}
		for _, named := range namedElems(f.Type()) {
			if pkg := named.Obj().Pkg(); pkg != nil && prog.Pkgs[pkg.Path()] != nil {
				walkPortable(prog, named.Obj(), seen, bad)
			}
		}
	}
}

// namedElems returns the named types a field type stores: itself, or the
// elements of the pointers, slices, arrays and maps wrapping them.
func namedElems(t types.Type) []*types.Named {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		return []*types.Named{u}
	case *types.Pointer:
		return namedElems(u.Elem())
	case *types.Slice:
		return namedElems(u.Elem())
	case *types.Array:
		return namedElems(u.Elem())
	case *types.Map:
		return append(namedElems(u.Key()), namedElems(u.Elem())...)
	}
	return nil
}

// stripImplementers removes types that are themselves subsystems from a
// derived payload set (an Import that delegates to a sibling subsystem is
// not constructing a payload).
func stripImplementers(iface *types.Interface, set map[*types.TypeName]bool) {
	for tn := range set {
		if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
			delete(set, tn)
		}
	}
}

// exemptField reports whether a field is auto-exempt from checkpoint
// completeness: embedded (the snap.Dirty generation counter pattern), a
// sync package type (locks guard state, they are not state), or itself a
// subsystem (checkpointed by its own methods).
func exemptField(iface *types.Interface, f *types.Var) bool {
	if f.Embedded() {
		return true
	}
	t := f.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named := namedOf(t); named != nil {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync" {
			return true
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
