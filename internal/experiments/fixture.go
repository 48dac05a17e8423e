package experiments

import (
	"fmt"
	"strings"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/grid"
	"decluster/internal/gridfile"
	"decluster/internal/replica"
)

// namedMethods is methods restricted to the given names, matched
// case-insensitively against the line label or the method's own name;
// no names keeps the whole set.
func (o Options) namedMethods(g *grid.Grid, m int, names []string) ([]alloc.Method, error) {
	methods, err := o.methods(g, m)
	if err != nil || len(names) == 0 {
		return methods, err
	}
	var keep []alloc.Method
	for _, m := range methods {
		for _, want := range names {
			if strings.EqualFold(lineName(m), want) || strings.EqualFold(m.Name(), want) {
				keep = append(keep, m)
				break
			}
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("experiments: no method matches filter %v", names)
	}
	return keep, nil
}

// replicaScheme is one two-copy placement of a method under the name
// the tables print.
type replicaScheme struct {
	name string
	rep  *replica.Replicated
}

// replicaSchemes builds the two placements every replication study
// compares: chained, and offset by the given stride.
func replicaSchemes(m alloc.Method, offset int) ([]replicaScheme, error) {
	chain, err := replica.NewChained(m)
	if err != nil {
		return nil, err
	}
	off, err := replica.NewOffset(m, offset)
	if err != nil {
		return nil, err
	}
	return []replicaScheme{{"chain", chain}, {fmt.Sprintf("offset+%d", offset), off}}, nil
}

// populated builds m's grid file (pageCapacity 0 keeps the grid file's
// default) and loads records into it.
func populated(m alloc.Method, pageCapacity int, records []datagen.Record) (*gridfile.File, error) {
	f, err := gridfile.New(gridfile.Config{Method: m, PageCapacity: pageCapacity})
	if err != nil {
		return nil, err
	}
	if err := f.InsertAll(records); err != nil {
		return nil, err
	}
	return f, nil
}
