package interp

import (
	"fmt"

	"facc/internal/minic"
)

// Alloc is one allocation (a global, local, array, or malloc block).
// Memory is modeled as typed scalar cells, so every out-of-bounds or
// use-after-free access is caught exactly — the role AddressSanitizer
// plays in the paper's generate-and-test loop.
type Alloc struct {
	ID    int
	Name  string // diagnostic label ("buf", "malloc#3", ...)
	Cells []Value
	Freed bool

	// Untyped malloc blocks carry a byte size until the first typed use.
	RawBytes int
	ElemType *minic.Type // element type the block was materialized with
}

// Pointer is a typed reference into an allocation: the allocation, a cell
// offset, and the element type the pointer views memory as. A nil Alloc is
// the null pointer.
type Pointer struct {
	Alloc *Alloc
	Off   int // cell index
	Elem  *minic.Type
}

// IsNull reports whether p is the null pointer.
func (p Pointer) IsNull() bool { return p.Alloc == nil }

// AsInt returns a stable integer rendering of the pointer (for the rare
// pointer→int casts; only nullness is meaningful).
func (p Pointer) AsInt() int64 {
	if p.Alloc == nil {
		return 0
	}
	return int64(p.Alloc.ID)<<20 + int64(p.Off) + 1
}

func (p Pointer) String() string {
	if p.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("&%s[%d]", p.Alloc.Name, p.Off)
}

// FlatSize returns the number of scalar cells an object of type t occupies.
// VLAs and incomplete arrays return 0 (cannot be sized statically).
func FlatSize(t *minic.Type) int {
	switch t.Kind {
	case minic.TArray:
		if t.ArrayLen < 0 {
			return 0
		}
		return t.ArrayLen * FlatSize(t.Elem)
	case minic.TStruct:
		n := 0
		for _, f := range t.Fields {
			n += FlatSize(f.Type)
		}
		return n
	case minic.TVoid:
		return 0
	default:
		return 1
	}
}

// FlatLeaves appends the scalar leaf types of t (in layout order) to dst.
func FlatLeaves(t *minic.Type, dst []*minic.Type) []*minic.Type {
	switch t.Kind {
	case minic.TArray:
		for i := 0; i < t.ArrayLen; i++ {
			dst = FlatLeaves(t.Elem, dst)
		}
		return dst
	case minic.TStruct:
		for _, f := range t.Fields {
			dst = FlatLeaves(f.Type, dst)
		}
		return dst
	default:
		return append(dst, t)
	}
}

// fieldOffset returns the flat cell offset of field index i within struct t.
func fieldOffset(t *minic.Type, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += FlatSize(t.Fields[j].Type)
	}
	return off
}

// NewAlloc creates a typed allocation of count elements of type elem.
func (m *Machine) NewAlloc(name string, elem *minic.Type, count int) *Alloc {
	a := newCells(count * FlatSize(elem))
	zeroInto(a.Cells, elem)
	a.Name, a.ElemType = name, elem
	m.countAlloc()
	a.ID = m.nextAllocID
	return a
}

// countAlloc books one allocation: the next allocation ID and the live
// count. Frame-resident scalars call it without building an Alloc, so
// IDs (and Pointer.AsInt renderings) match a machine that allocated
// every variable.
func (m *Machine) countAlloc() {
	m.nextAllocID++
	m.liveAllocs++
}

// cellAlloc is an Alloc with room for its cells in the same heap object
// when there are few of them: escaping scalars, complex structs and
// struct values then cost one allocation instead of two.
type cellAlloc struct {
	Alloc
	inline [2]Value
}

// newCells returns an unnamed Alloc of n untyped cells.
func newCells(n int) *Alloc {
	if n <= len(cellAlloc{}.inline) {
		c := &cellAlloc{}
		c.Cells = c.inline[:n:n]
		return &c.Alloc
	}
	return &Alloc{Cells: make([]Value, n)}
}

// zeroInto fills cells, whose length is a multiple of FlatSize(elem),
// with the zero leaves of consecutive elem objects.
func zeroInto(cells []Value, elem *minic.Type) {
	per := FlatSize(elem)
	if per == 0 || len(cells) == 0 {
		return
	}
	zeroLeaves(cells, elem)
	for i := per; i < len(cells); i *= 2 {
		copy(cells[i:], cells[:i])
	}
}

// zeroLeaves writes the zero leaves of one t object to the front of dst
// and returns how many it wrote.
func zeroLeaves(dst []Value, t *minic.Type) int {
	switch t.Kind {
	case minic.TArray:
		n := 0
		for i := 0; i < t.ArrayLen; i++ {
			n += zeroLeaves(dst[n:], t.Elem)
		}
		return n
	case minic.TStruct:
		n := 0
		for _, f := range t.Fields {
			n += zeroLeaves(dst[n:], f.Type)
		}
		return n
	default:
		dst[0] = zeroValue(t)
		return 1
	}
}

// newRawAlloc creates an untyped malloc block of the given byte size.
func (m *Machine) newRawAlloc(name string, bytes int) *Alloc {
	m.countAlloc()
	return &Alloc{ID: m.nextAllocID, Name: name, RawBytes: bytes}
}

// materialize gives an untyped malloc block its element type on first
// typed use. Re-materializing with an incompatible type is a fault.
func (m *Machine) materialize(a *Alloc, elem *minic.Type, pos minic.Pos) error {
	if a.Cells != nil || a.ElemType != nil {
		if a.ElemType != nil && !a.ElemType.Same(elem) {
			// Permit views that keep the same scalar leaf type, e.g.
			// float* into a float[2]-shaped block.
			aLeaves := FlatLeaves(a.ElemType, nil)
			eLeaves := FlatLeaves(elem, nil)
			if len(aLeaves) > 0 && len(eLeaves) > 0 && aLeaves[0].Same(eLeaves[0]) {
				return nil
			}
			return m.fault(pos, FaultBadCast,
				"pointer reinterprets %s block as %s", a.ElemType, elem)
		}
		return nil
	}
	size := elem.Sizeof()
	if size <= 0 {
		return m.fault(pos, FaultBadCast, "cannot materialize block as %s", elem)
	}
	a.Cells = make([]Value, a.RawBytes/size*FlatSize(elem))
	zeroInto(a.Cells, elem)
	a.ElemType = elem
	return nil
}

// checkAccess validates that cells [off, off+n) of the allocation are
// readable/writable through pointer p.
func (m *Machine) checkAccess(p Pointer, n int, pos minic.Pos) error {
	if p.IsNull() {
		return m.fault(pos, FaultNullDeref, "null pointer dereference")
	}
	a := p.Alloc
	if a.Freed {
		return m.fault(pos, FaultUseAfterFree, "use after free of %s", a.Name)
	}
	if a.Cells == nil {
		if err := m.materialize(a, p.Elem, pos); err != nil {
			return err
		}
	}
	if p.Off < 0 || p.Off+n > len(a.Cells) {
		return m.fault(pos, FaultOutOfBounds,
			"out-of-bounds access to %s: cells [%d,%d) of %d",
			a.Name, p.Off, p.Off+n, len(a.Cells))
	}
	return nil
}

// LoadScalar reads the single cell at p.
func (m *Machine) LoadScalar(p Pointer, pos minic.Pos) (Value, error) {
	if err := m.checkAccess(p, 1, pos); err != nil {
		return Value{}, err
	}
	m.Counters.Loads++
	return p.Alloc.Cells[p.Off], nil
}

// StoreScalar writes v (converted to the cell's type) at p.
func (m *Machine) StoreScalar(p Pointer, v Value, pos minic.Pos) error {
	if err := m.checkAccess(p, 1, pos); err != nil {
		return err
	}
	cell := &p.Alloc.Cells[p.Off]
	cv, err := Convert(v, cell.T)
	if err != nil {
		return m.fault(pos, FaultBadCast, "store: %v", err)
	}
	m.Counters.Stores++
	*cell = cv
	return nil
}

// LoadObject reads an object of type t (possibly a struct) at p.
func (m *Machine) LoadObject(p Pointer, t *minic.Type, pos minic.Pos) (Value, error) {
	if t.Kind != minic.TStruct {
		return m.LoadScalar(p, pos)
	}
	n := FlatSize(t)
	if err := m.checkAccess(p, n, pos); err != nil {
		return Value{}, err
	}
	m.Counters.Loads += int64(n)
	return structValue(t, p.Alloc.Cells[p.Off:p.Off+n]), nil
}

// StoreObject writes an object of type t at p. Struct stores copy all
// leaves; scalar stores convert.
func (m *Machine) StoreObject(p Pointer, t *minic.Type, v Value, pos minic.Pos) error {
	if t.Kind != minic.TStruct {
		return m.StoreScalar(p, v, pos)
	}
	n := FlatSize(t)
	if v.K != VStruct || len(v.leaves()) != n {
		return m.fault(pos, FaultBadCast, "struct store size mismatch")
	}
	if err := m.checkAccess(p, n, pos); err != nil {
		return err
	}
	m.Counters.Stores += int64(n)
	copy(p.Alloc.Cells[p.Off:p.Off+n], v.leaves())
	return nil
}

// PointerAdd advances p by delta elements of its view type.
func PointerAdd(p Pointer, delta int64) Pointer {
	if p.IsNull() {
		return p
	}
	step := FlatSize(p.Elem)
	if step == 0 {
		step = 1
	}
	p.Off += int(delta) * step
	return p
}

// pointerDiff returns the element distance between two pointers into the
// same allocation.
func (m *Machine) pointerDiff(a, b Pointer, pos minic.Pos) (int64, error) {
	if a.Alloc != b.Alloc {
		return 0, m.fault(pos, FaultBadPointerOp,
			"difference of pointers into different allocations")
	}
	step := FlatSize(a.Elem)
	if step == 0 {
		step = 1
	}
	return int64((a.Off - b.Off) / step), nil
}
