package vm

// Accessors only this package's tests read.

// Edge returns the object's edge program with no input counted as state:
// EdgeFor(nil).
func (o *Object) Edge() *Edge { return o.EdgeFor(nil) }
