package binder

import (
	"encoding/gob"
	"fmt"
	"slices"
)

// ServiceManager checkpoint/restore. Services are registered once at boot
// and the probing pass is the only SetObserver caller (and it reboots the
// device when done), so the registry is almost never dirty mid-campaign —
// the generation check makes its restore free.

// smState is the ServiceManager's checkpoint payload. Service identity
// cannot cross devices — registered services hold pointers into their own
// device — so only the sorted descriptor set is portable. A decoded payload
// arrives with services nil: Validate checks its descriptors against the
// receiver's own registry, and Restore keeps the receiver's own service
// instances (rebuilt per twin by the hal.Process subsystems).
type smState struct {
	Descriptors []string //droidvet:checkpoint derived from services; imports check it in Validate
	//droidvet:checkpoint device-local: service identity never crosses devices
	services map[string]Service // shallow: Service identity is the state
	// Observers are harness wiring, re-armed by the probing pass per
	// device; an imported twin starts unobserved on purpose.
	//droidvet:checkpoint observers never cross devices
	observer Observer
}

func init() { gob.Register(&smState{}) }

// Checkpoint implements snap.Subsystem.
func (sm *ServiceManager) Checkpoint() any {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	st := &smState{
		services: make(map[string]Service, len(sm.services)),
		observer: sm.observer,
	}
	for d, s := range sm.services { //droidvet:nondet collect-then-sort
		st.services[d] = s
		st.Descriptors = append(st.Descriptors, d)
	}
	slices.Sort(st.Descriptors)
	return st
}

// Restore implements snap.Subsystem. A decoded payload (no services) leaves
// the registry as it is: Validate already matched its descriptor set.
func (sm *ServiceManager) Restore(s any) {
	st := s.(*smState)
	if st.services == nil {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.services = make(map[string]Service, len(st.services))
	for d, svc := range st.services { //droidvet:nondet order-independent map copy
		sm.services[d] = svc
	}
	sm.observer = st.observer
}

// Validate implements snap.Validator: a checkpoint must carry exactly this
// registry's descriptor set.
func (sm *ServiceManager) Validate(s any) error {
	st := s.(*smState)
	if own := sm.List(); !slices.Equal(own, st.Descriptors) {
		return fmt.Errorf("binder: checkpoint registry of %d services does not match this device's %d", len(st.Descriptors), len(own))
	}
	return nil
}
