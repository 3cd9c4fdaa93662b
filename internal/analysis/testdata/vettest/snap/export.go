package snap

// Blob is the portable-checkpoint fixture in the shape of a device
// checkpoint payload: exported state that any number of clone twins
// may import, immutable from the moment its builder returns. A write
// through an imported blob would be observed by every sibling twin.
type Blob struct {
	Regs []uint64
	Name string
}

// NewBlob is the registered export builder: its construction writes are
// pre-publication and must not be flagged.
func NewBlob(regs []uint64, name string) *Blob {
	b := &Blob{Regs: make([]uint64, len(regs))}
	copy(b.Regs, regs)
	b.Name = name
	return b
}
