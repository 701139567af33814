//go:build !redsoc_audit

package ooo

import "redsoc/internal/core"

// auditState is the production no-op stand-in for the redsoc_audit runtime
// invariant checker (see audit_on.go). The empty struct and empty methods
// compile away entirely, so steady-state simulation pays nothing for the
// hooks.
type auditState struct{}

// Enabled reports whether the runtime audit layer is compiled in.
func (auditState) Enabled() bool { return false }

func (auditState) onIssue(*Simulator, *entry, int) {}

func (auditState) onCommitMem(*Simulator, int32, int32) {}

func (auditState) onArbRequests(*Simulator, []core.Request) {}

func (auditState) onReadyMerged(*Simulator, int64) {}

func (auditState) onAdoptFinal(*Simulator, *finalState) {}
