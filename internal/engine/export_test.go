package engine

import (
	"repro/dep"
	"repro/ir"
)

// FindFirst exposes one first-match search to the external tests.
func (o *Optimizer) FindFirst(p *ir.Program, g *dep.Graph) bool {
	_, ok := o.findFirst(o.newContext(p, g))
	return ok
}
