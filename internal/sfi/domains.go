// Per-task fault domains: the multi-tasking surface of the SFI model.
//
// Occlum-style library OSes multiplex many isolated tasks inside one enclave
// address space by giving each task its own MPX-bounded fault domain and
// reloading the bound registers on every task switch. Domains models exactly
// that: a bound table indexed by task, an active task whose bounds are loaded,
// a bndmov-style reload charged on each switch, and a two-instruction
// bndcl/bndcu check on every task-attributed access. Like the base sfi.Policy
// it sees only domain bounds, never object bounds — an overflow that stays
// inside the task's own arena passes unexamined.
package sfi

import (
	"fmt"

	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

// SwitchInstr is the instruction cost of reloading the bound registers on a
// task switch (bndmov of both bounds from the task's bound-table entry plus
// the scheduler bookkeeping around it).
const SwitchInstr = 16

// Domains is a per-task fault-domain table for one simulated worker. It is
// not safe for concurrent use: under machine.Parallel each worker owns its
// own Domains, which keeps task switching deterministic.
type Domains struct {
	lo, hi   []uint32 // per-task domain bounds ([lo, hi), hi exclusive)
	active   int      // task whose bounds are loaded (-1 = none)
	switches uint64   // bound reloads performed
}

// NewDomains builds a table for n tasks with no bounds loaded. Tasks start
// unbound; Bind must run before a task's domain is checked against.
func NewDomains(n int) *Domains {
	return &Domains{lo: make([]uint32, n), hi: make([]uint32, n), active: -1}
}

// Bind sets task's fault domain to [lo, hi). Binding is scheduler work done
// at task creation, outside simulated execution, so it charges nothing.
func (d *Domains) Bind(task int, lo, hi uint32) {
	if lo >= hi {
		panic(fmt.Sprintf("sfi: task %d bound to empty domain [%#x, %#x)", task, lo, hi))
	}
	d.lo[task], d.hi[task] = lo, hi
}

// Switch makes task the active domain, charging the bndmov-style bound
// reload. Switching to the already-active task is free — the bounds are
// already loaded.
func (d *Domains) Switch(t *machine.Thread, task int) {
	if task == d.active {
		return
	}
	t.Instr(SwitchInstr)
	d.active = task
	d.switches++
}

// Active returns the task whose bounds are loaded (-1 = none).
func (d *Domains) Active() int { return d.active }

// Switches returns the number of bound reloads performed.
func (d *Domains) Switches() uint64 { return d.switches }

// Check verifies that [p, p+size) lies inside the active task's domain — the
// same two-instruction bndcl/bndcu pair as the base policy's check, against
// the task's bounds instead of the global data domain. It layers on top of
// whatever hardening policy guards the access itself: the policy sees
// objects, the domain sees tasks.
func (d *Domains) Check(t *machine.Thread, p harden.Ptr, size uint32, kind harden.AccessKind) {
	t.Instr(2)
	t.C.Checks++
	a := p.Addr()
	lo, hi := d.lo[d.active], d.hi[d.active]
	if a < lo || a+size > hi || a+size < a {
		panic(&harden.Violation{
			Policy: "sfi-domain", Kind: kind, Addr: a, Size: size,
			LB: lo, UB: hi,
			Detail: fmt.Sprintf("(task %d domain violation)", d.active),
		})
	}
}
