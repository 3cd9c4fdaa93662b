package cpt

// badState is Bad's checkpoint payload: C never round-trips at all, and b
// round-trips in memory but is unexported and unannotated, so gob would
// drop it from the portable checkpoint.
type badState struct {
	A uint64
	b uint64
	C uint64
}

// Bad seeds one violation of every checkpoint check: leak is stateful but
// never captured (and not annotated), waived is the same shape with an
// explicit waiver.
type Bad struct {
	a      uint64
	b      uint64
	leak   uint64
	waived uint64 //droidvet:checkpoint deliberate fixture omission
}

// Checkpoint implements Subsystem: badState.C is never populated.
func (d *Bad) Checkpoint() any {
	return badState{A: d.a, b: d.b}
}

// Restore implements Subsystem: badState.C is never read back.
func (d *Bad) Restore(s any) {
	st := s.(badState)
	d.a = st.A
	d.b = st.b
}

// Gen implements Subsystem.
func (d *Bad) Gen() uint64 { return 0 }

// Leaked keeps the un-checkpointed fields live so the fixture is honest
// about them being real state.
func (d *Bad) Leaked() uint64 { return d.leak + d.waived }
