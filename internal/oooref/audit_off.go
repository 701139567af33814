//go:build !redsoc_audit

package oooref

// auditState is the production no-op stand-in for the redsoc_audit runtime
// invariant checker (see audit_on.go). The empty struct and empty methods
// compile away entirely, so steady-state simulation pays nothing for the
// hooks.
type auditState struct{}

func (auditState) onIssue(*Simulator, *entry, int) {}

func (auditState) onCommitMem(*Simulator, *entry, *entry) {}
