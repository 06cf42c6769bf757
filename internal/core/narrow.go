package core

import (
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
)

// Bounds narrowing — the §8 "Catching intra-object overflows" extension.
//
// SGXBounds keeps bounds for whole objects, so an overflow from a struct
// member into a sibling member (the 8 in-struct RIPE attacks of Table 4) is
// invisible. The paper sketches the fix: "whenever SGXBounds detects an
// access through a struct field, it updates the current pointer bounds to
// the bounds of this field. The main difficulty here is to keep additional
// lower-bound metadata for each object field; for this, we extend our
// metadata space and utilize metadata hooks."
//
// This file implements that sketch. Narrow produces a pointer whose tag is
// the *field's* upper bound. The field's lower bound cannot live at the
// field's end (that is object payload), so it goes into the extended
// metadata space: a per-policy field-bounds table keyed by the field's
// upper bound, populated on first narrowing — exactly the "extend metadata
// space" route the paper describes. The bounds check consults the field
// table before falling back to the in-memory lower-bound word.

// Narrow returns a pointer to the struct field [off, off+size) within the
// object p refers to, carrying the *field's* bounds: subsequent accesses
// through the returned pointer are confined to the field, so in-struct
// overflows become detectable. The narrowing itself is checked: a field
// that does not fit its object is a violation.
//
// Narrowing costs one field-table insertion on first use of a given field
// and one table lookup per check through a narrowed pointer (the analogue
// of the metadata-hook machinery the paper proposes). It is opt-in per
// access site, like MPX's __builtin___bnd_narrow_ptr_bounds.
func (pl *Policy) Narrow(t *machine.Thread, p harden.Ptr, off int64, size uint32) harden.Ptr {
	// The field must lie within the referent object.
	fp := pl.Add(t, p, off)
	addr, ok := pl.check(t, fp, size, harden.Read)
	if !ok {
		// Boundless mode tolerated an out-of-object field: return the
		// object pointer unchanged rather than minting bogus field bounds.
		return p
	}
	fub := addr + size
	t.Instr(4)
	if pl.fields == nil {
		pl.fields = make(map[uint32]uint32)
	}
	if _, exists := pl.fields[fub]; !exists {
		pl.fields[fub] = addr
	}
	return Tag(addr, fub)
}

// fieldLB resolves a narrowed pointer's lower bound from the extended
// metadata space. ok is false when ub is not a narrowed bound.
func (pl *Policy) fieldLB(t *machine.Thread, ub uint32) (uint32, bool) {
	t.Instr(2)
	lb, ok := pl.fields[ub]
	return lb, ok
}
